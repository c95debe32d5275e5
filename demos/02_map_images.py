"""Push circles and disks through the maps of the 5-power modular tower.

Run:  python demos/02_map_images.py
"""

from fractions import Fraction as F

from stablelab import modmaps

maps = modmaps.builtin_maps()
print("The six classical maps between X0(25), X0(5) and X(1):")
for name, rmap in maps.items():
    print(f"  {name:6s}: {rmap.source_coord} -> {rmap.target_coord}, "
          f"degrees {rmap.degrees()}")
print()

print("A circle maps to a circle exactly when one monomial dominates alone:")
for rmap, source, radius in ((maps["pi5_t"], "u", F(3, 10)), (maps["pi1_j"], "t", F(3, 2)),
                             (maps["pi1_j"], "t", F(5, 2))):
    cert = modmaps.image_valuation(rmap, radius)
    relation, wording = ("=", "circle->circle exact") if cert.unique else (">=", "bound only (tie)")
    print(f"  v({source}) = {radius}  ->  v({rmap.target_coord}) {relation} "
          f"{cert.lower_bound}  ({wording})")
print("The tie in the last line is how a circle image fattens into a disk.")
image = modmaps.cell_image_valuation(maps["pi1_j"], F(0), F(5, 2))
print(f"On the whole cell 0 < v(t) < 5/2, v(j) = {image.constant} + {image.slope}*v(t):")
print("t^6 over t^5 dominates alone there, so every circle in it maps exactly.\n")

print("Atkin-Lehner fixed circles (lambda with v(c) - lambda = lambda):")
print("  w5 = 125/t :", modmaps.al_fixed_circle(maps["w5"]))
print("  w25 = 5/u  :", modmaps.al_fixed_circle(maps["w25"]))
for name in ("w5", "w25"):
    modmaps.involution_identity(maps[name])  # raises CertificateError unless the identity holds
print("both are involutions: w5(w5(t)) = t and w25(w25(u)) = u as rational maps\n")

print("Where do the ten ramification points land on X0(5)?  Eliminating the")
print("double-root parametrization x = 5/u^2, y = 10/u through pi5:")
eliminant = modmaps.ramification_image_polynomial(maps["pi5_t"])
print("  eliminant degree:", len(eliminant) - 1)
print("  its squarefree part is a multiple of t^2 - 125, i.e. t^2 = 125\n")

print("Each certificate raises CertificateError unless its claim holds.")
print("The CM residue disks described in u match those pulled back through r:")
print("  v5(5^5/r^5 - 5^3) =", modmaps.cm_disk_identities(), "> 3")

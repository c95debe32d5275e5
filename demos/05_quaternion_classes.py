"""Conjugation orbits in F_p[i, eps_j, eps_k] and the uniformizer example.

Run:  python demos/05_quaternion_classes.py
"""

from stablelab import quatlab

print("The finite algebra F_p[i, eps_j, eps_k] models the mod-p endomorphisms")
print("of a supersingular curve: i^2 = alpha (a non-residue), the eps's are")
print("nilpotent, and i eps_j = eps_k = -eps_j i.  The algebra's structure")
print("constants are built and checked once per prime; the orbit certificate")
print("reads them, and raises CertificateError if a basis identity, stabilizer,")
print("image or fibre count is off.\n")

for p in (5, 7, 13, 17):
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    orbits = quatlab.orbit_analysis(params, quatlab.build_algebra(params))
    sizes = sorted({size for size, _, _ in orbits})
    print(f"p = {p:2d}, alpha = {params.alpha}: {len(orbits)} conjugation orbits "
          f"of size {sizes[0]} on the {p*p - 1} nonzero nilpotents "
          "(stabilizers F_p^*, the scalars, of order p - 1)")
print()
print("Writing c*eps_j + d*eps_k = z*eps_j with z = c + d*i, conjugation by g is")
print("multiplication by g/conj(g), which runs over the p + 1 elements of norm 1,")
print("so the orbits are the fibres of the norm N(z) = c^2 - alpha*d^2: two")
print("nilpotents are conjugate iff they share it, and the orbit count p - 1 is")
print("exactly the number of nonzero invariant values.\n")

print("Example at p = 7 (alpha = -1): a uniformizer u with u^2 = -28 must land in")
found = quatlab.uniformizer_image_search()
print("the 8-element class:", sorted((e.c, e.d) for e in found))
print()
print("The automorphism i acts by conjugation, i.e. by negation, splitting the")
parts = quatlab.aut_refinement()
print("class into (7+1)/2 = 4 sign-pairs:",
      [sorted((e.c, e.d) for e in part) for part in parts])
print()

for p, aut in ((5, 6), (7, 4), (13, 2)):
    per_ext = quatlab.class_count(p, aut)
    print(f"p = {p:2d}, |Aut| = {aut}: {per_ext} classes per ramified quadratic "
          f"extension, {2 * per_ext} in total")
print()
print("Those totals (4, 8, 28) are the CM residue-disk counts at p = 5, 7, 13,")
print("and the per-extension counts (2, 4, 14) are the congruence exponents")
print("used in the placement checks.")

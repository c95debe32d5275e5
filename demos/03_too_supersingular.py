"""The too-supersingular disk of X(1) at p = 5, from the 5-division polynomial.

Run:  python demos/03_too_supersingular.py
"""

from fractions import Fraction as F

from stablelab import sslab
from stablelab.exactmath.poly import SymbolicPolynomial

print("Family: y^2 = x^3 + t*x + 1 over the supersingular disk v5(t) > 0.")
psi5 = sslab.division_polynomial_5()
print("5-division polynomial: degree", psi5.degree("x"),
      "in x, leading coefficient", psi5.coefficient("x", 12))
print("x^10 coefficient:", psi5.coefficient("x", 10), "\n")

polygon = sslab.torsion_polygon(psi5)
print(f"Parametric Newton polygon in lambda = v5(t) on ({polygon.lo}, {polygon.hi}),")
print(f"stored as {len(polygon.cells)} certified cells; all else is read off them:")
print("  hull vertex sets:", polygon.vertex_sets())
print("  breakpoint (where the vertex set changes):",
      ", ".join(map(str, polygon.breakpoints)), "\n")

for lam in (F(1, 2), F(9, 10)):
    profile = sslab.torsion_profile(polygon, lam)
    print(f"lambda = {lam}:")
    print("  x-root valuations:", profile.x_root_valuations)
    print("  z = x/y valuations over the 24 points:", profile.z_valuations)
    print("  canonical subgroup (4 points strictly nearest):", profile.canonical_subgroup)
print()

print("Below 5/6 four points sit strictly closer to the origin (the canonical")
print("subgroup); at 5/6 and beyond all 24 are equidistant and none exists.")
threshold = sslab.too_ss_threshold(polygon)  # raises CertificateError unless v5(j) = 3*v5(t)
j_num, j_den = sslab.weierstrass_j(sslab.t, SymbolicPolynomial.constant(1))
print("j(t) =", j_num, "/", j_den)
print("v5(j) = 3*v5(t) on the polygon's range, so the no-canonical-subgroup disk of X(1) is")
print("v5(j) >=", threshold)

"""Place CM j-invariants p-adically via class polynomials, p = 5, 7, 13.

Run:  python demos/04_cm_placement.py
"""

from stablelab import cmlab

print("For an imaginary quadratic order of discriminant D, the class")
print("polynomial H_D is assembled from high-precision values of the eta")
print("quotient j = (x + 256)^3 / x^2, x = (eta(tau) / eta(2 tau))^24, and")
print("rounded only when two precision levels agree.\n")

for disc in (-20, -40, -28):
    H = cmlab.class_polynomial(disc)
    print(f"D = {disc}: h = {H.degree}, H = {list(reversed(H.coefficients))} "
          f"(precision {H.precision_used} bits, error {H.max_rounding_error:.1e})")
print()

print("Per-root p-adic placement via the Newton polygon of")
print("G(w) = Res_j(H(j), w - ((j - c)^e -/+ p^k)):\n")

for disc, p, sign in ((-20, 5, "-"), (-40, 5, "+"), (-28, 7, "-"), (-52, 13, "-")):
    H = cmlab.class_polynomial(disc)
    spec = cmlab.standard_spec(p, sign)
    result = cmlab.congruence_check(H, spec)
    print(f"D = {disc:5d}, p = {p:2d}: v_{p}((j - {spec.center})^{spec.exponent} "
          f"{sign} {spec.prime_power}) has per-root minimum "
          f"{result.min_root_valuation} (bound {spec.bound}: "
          f"{'pass' if result.passed else 'fail'})")
print()

print("The twelve published example rows, checked exactly: the row's tau values")
print("reduce to the forms of D, one per class, so prod (X - j(tau)) = H_D:")
for row in cmlab.table_rows():
    row_ok = cmlab.table_crosscheck(row)
    spec = cmlab.standard_spec(5, "-" if row.case == 1 else "+")
    cong = cmlab.congruence_check(cmlab.class_polynomial(row.discriminant), spec)
    print(f"  {row.label:20s} D = {row.discriminant:5d}: "
          f"h = {len(row.taus)}, row polynomial {'ok' if row_ok else 'BAD'}, "
          f"congruence minimum {cong.min_root_valuation}")

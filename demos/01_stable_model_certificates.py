"""Walk through the exact certificates behind the stable model of X0(125).

Run:  python demos/01_stable_model_certificates.py
"""

from stablelab import curve125
from stablelab.exactmath import root_valuation_multiset, val_rat

print("The plus-quotient curve is cut out by a 14-term model f+(x, y),")
print("with the degree-2 extension given by the fiber equation x*u^2 - y*u + 5.")
print("f+ =", curve125.F_PLUS, "\n")

print("Shift x = x0 + r, where r is a root of r^5 + 25r - 25 (v5(r) = 2/5).")
print("Every coefficient of the shifted model is checked against the")
print(f"published {len(curve125.TABLE1)}-cell table 1; a single wrong cell raises")
print("CertificateError, as does every certificate below whose claim fails.")
g_plus = curve125.build_shifted_model()
print("coefficient of x0^4:", g_plus.coefficient("x0", 4).coefficient("y", 0))
print()

print("At v(x0) = 1/2, v(y) = 3/4 no monomial of g+ lies below valuation 5/2,")
curve125.verify_dominance_eq3(g_plus)
print("and its valuation-5/2 part is exactly", curve125.EQ3)
print("so the curve is approximated by x0^5 + 25*x0 = 15*y^2 there,")
print("and the Newton polygon in x0 puts all five roots at v(x0) = 1/2.\n")

print("Scaling by alpha = sqrt(5), beta = 5^(3/4) produces an integral model;")
eq4_residual = curve125.reduction_eq4(g_plus)
print("its valuation-0 part is y1^2 - x1^5/3 - x1/3, and 1/3 = 2 in F5, so its")
print("residue over F5-bar is y1^2 = 2*x1^5 + 2*x1")
print("residual monomials all have valuation >=", eq4_residual, "\n")

print("The ten ramification points of the double cover satisfy y^2 = 20x.")
ram = curve125.ramification_polynomials()
print("p_ram_y coefficient valuations:", [val_rat(c, 5) for c in ram.p_ram_y])
print("root valuations:", root_valuation_multiset(ram.p_ram_y, 5))
print("pairwise y-distances:", ram.y_distance_multiset)
print("  -> two clusters of five:", curve125.cluster_sizes(ram.y_distance_multiset))
print("pairwise x-distances:", ram.x_distance_multiset)
print("  (note the five extra-close cross-cluster pairs at 7/10)\n")

print("The annulus 1/5 < v(s) < 1/4 parameterizes the region between the")
print("good-reduction affinoid and the ramification circle v(s) = 6/25:")
delta = curve125.hensel_certificate(g_plus)
print("the constant piece 0 of v(h'(1)) lies strictly below every other piece inside")
print("the annulus (at v(s) = 1/5 the piece -2 + 10 v(s) ties it), so v(h'(1)) = 0 there")
print("v(h(1)) is a minimum of affine pieces in v(s), hence concave: 0 at both ends")
print(f"and {delta} at v(s) = {curve125.RAM_CIRCLE}, "
      "so v(h(1)) > 0 on the whole open annulus")
print("exported error bound at v(s) = 6/25:", delta, "\n")

print("With that bound the fiber equation reduces on the middle circle to the")
eq6_residual = curve125.reduction_eq6(delta)
print("genus-0-component equation; its valuation-0 part matches term for term,")
print("and the residual monomials have valuation >=", eq6_residual, "\n")

print("Finally the square-completion identity behind the double cover:")
curve125.fiber_square_identity()
print("(2xu - y)^2 - (y^2 - 20x) = 4*x * (xu^2 - yu + 5)")
print()
print("Budget: 2 copies of the good-reduction affinoid + 2 affinoids over the")
print("ramification clusters = 4 components of genus 2 = the full genus 8,")
print("plus one genus-0 component meeting all four.")

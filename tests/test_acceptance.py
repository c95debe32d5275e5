"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance here is exact (integer or Fraction equality); nothing is
deferred to calibration.  A layer certificate that fails raises
CertificateError, which fails its criterion.  Criterion 3's x-distance half
asserts the published value {1/2 x90}; the exact computation yields
{1/2 x80, 7/10 x10} (five cross-cluster pairs are strictly closer), so that
half fails and is reported honestly rather than weakened.
"""

from fractions import Fraction as F

from stablelab import CertificateError, cmlab, curve125, ledger, modmaps, quatlab, sslab
from stablelab.exactmath import (
    INF,
    min_valuation,
    newton_polygon,
    root_valuation_multiset,
    squarefree_part,
    symbol_valuations,
    val_rat,
)


def conclude(number: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number:02d} ({name}): {tag}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_c01_table1_reproduction():
    g_plus = curve125.build_shifted_model()  # raises on any coefficient mismatch
    table = curve125.TABLE1
    cells = {
        (i, j): g_plus.coefficient("x0", i).coefficient("y", j)
        for i in range(6)
        for j in range(5)
    }
    nonzero = {key for key, value in cells.items() if not value.is_zero()}
    ok = (
        nonzero == set(table)
        and len(nonzero) == 16
        and all(cells[key] == table[key] for key in table)
    )
    conclude(1, "table-1 reproduction", ok, "16 nonzero cells, all empty cells zero")


def test_c02_ramification_valuation_table():
    ram = curve125.ramification_polynomials()
    vals = tuple(val_rat(c, 5) for c in ram.p_ram_y)
    table_ok = vals == (7, 7, 6, 6, 5, 5, 4, 4, 3, INF, 0)
    polygon_ok = root_valuation_multiset(ram.p_ram_y, 5) == ((F(7, 10), 10),)
    conclude(2, "ramification valuations", table_ok and polygon_ok,
             "coefficients (0,inf,3,4,4,5,5,6,6,7,7); ten roots at 7/10")


def test_c03_distance_multisets():
    ram = curve125.ramification_polynomials()
    y_ok = ram.y_distance_multiset == ((F(7, 10), 50), (F(4, 5), 40))
    conclude(3, "y-distance multiset", y_ok, "{7/10 x50, 8/10 x40}")
    x_ok = ram.x_distance_multiset == ((F(1, 2), 90),)
    conclude(
        3,
        "x-distance multiset",
        x_ok,
        f"asserted {{1/2 x90}}; computed "
        + "{" + ", ".join(f"{v} x{n}" for v, n in ram.x_distance_multiset) + "}",
    )


def test_c04_dominance_certificate():
    g_plus = curve125.build_shifted_model()
    curve125.verify_dominance_eq3(g_plus)  # raises CertificateError unless dominance holds
    assignment = {**symbol_valuations([curve125.R_SYMBOL], 5), **curve125.EQ3_ASSIGNMENT}
    mv = min_valuation(g_plus, assignment, 5)
    minima = [min_valuation(g_plus.coefficient("x0", i), assignment, 5).value for i in range(6)]
    ok = (
        mv.witnesses == ((("x0", 1),), (("x0", 5),), (("y", 2),))
        and mv.value == F(5, 2)
        and newton_polygon(minima).root_valuations() == ((F(1, 2), 5),)
    )
    conclude(4, "dominance of x0^5 + 25x0 = 15y^2", ok,
             "three monomials at 5/2; polygon slope -1/2")


def test_c05_reduction_certificates():
    g_plus = curve125.build_shifted_model()
    # eq 4 certifies the valuation-0 part y1^2 - x1^5/3 - x1/3, whose
    # coefficients reduce to 1, 3, 3 mod 5
    eq4_residual = curve125.reduction_eq4(g_plus)
    residues = [c.numerator * pow(c.denominator, -1, 5) % 5 for c in (F(1), F(-1, 3), F(-1, 3))]
    residue_ok = residues == [1, 3, 3] and eq4_residual == F(1, 4)
    delta = curve125.hensel_certificate(g_plus)
    _, hp1_pieces = curve125._hensel_pieces(g_plus)
    hp1_minima = [min(fn(e) for fn in hp1_pieces) for e in curve125.HENSEL_INTERVAL]
    hensel_ok = hp1_minima == [0, 0] and delta == F(2, 25)
    # eq 6 raises unless its target coefficients are units and the
    # valuation-0 parts match term for term
    eq6_ok = curve125.reduction_eq6(delta) == F(2, 25)
    conclude(5, "reduction certificates", residue_ok and hensel_ok and eq6_ok,
             "eq4 residue y1^2 = 2x1^5 + 2x1; hensel v(h'(1)) = 0 and v(h(1)) > 0 "
             "on the open annulus; eq6 valuation-0 part matches")


def test_c06_map_images():
    maps = modmaps.builtin_maps()
    u_circle = modmaps.image_valuation(maps["pi5_t"], F(3, 10))
    j_circle = modmaps.image_valuation(maps["pi1_j"], F(3, 2))
    j_disk = modmaps.image_valuation(maps["pi1_j"], F(5, 2))
    ram_part = squarefree_part(modmaps.ramification_image_polynomial(maps["pi5_t"]))
    ok = (
        u_circle.lower_bound == F(3, 2) and u_circle.unique
        and j_circle.lower_bound == F(3, 2) and j_circle.unique
        and j_disk.lower_bound == F(5, 2) and not j_disk.unique
        and [c // ram_part[-1] for c in ram_part] == [-125, 0, 1]
    )
    conclude(6, "map images", ok,
             "3/10 -> 3/2 unique; 3/2 -> 3/2 unique; 5/2 tie (disk); "
             "eliminant squarefree part t^2 - 125")


def test_c07_too_supersingular_threshold():
    polygon = sslab.torsion_polygon(sslab.division_polynomial_5())
    below = sslab.torsion_profile(polygon, F(1, 2))
    above = sslab.torsion_profile(polygon, F(9, 10))
    threshold = sslab.too_ss_threshold(polygon)
    ok = (
        polygon.breakpoints == (F(5, 6),)
        and polygon.vertex_sets() == ((0, 10, 12), (0, 12))
        and below.z_valuations == ((F(1, 40), 20), (F(1, 8), 4))
        and above.z_valuations == ((F(1, 24), 24),)
        and threshold == F(5, 2)
    )
    conclude(7, "too-supersingular threshold", ok,
             "breakpoint 5/6; profiles (lam/20 x20, (1-lam)/4 x4) and (1/24 x24); "
             "threshold 5/2")


def test_c08_cm_placement():
    failures = []
    for row in cmlab.table_rows():
        cmlab.table_crosscheck(row)  # raises CertificateError on a wrong row
        H = cmlab.class_polynomial(row.discriminant)
        spec = cmlab.standard_spec(5, "-" if row.case == 1 else "+")
        cong = cmlab.congruence_check(H, spec)
        if not (cong.passed and H.max_rounding_error < 1e-6):
            failures.append(row.discriminant)
        # integer stability under doubling
        taus = [form.tau() for form in cmlab.reduced_forms(row.discriminant)]
        again, _, _ = cmlab.polynomial_from_taus(taus, 2 * H.precision_used)
        if again != H.coefficients:
            failures.append((row.discriminant, "unstable"))
    for p, discs in cmlab.EXTRA_DISCRIMINANTS.items():
        for disc in discs:
            H = cmlab.class_polynomial(disc)
            sign = "-" if cmlab.congruence_case(disc, p) == 1 else "+"
            cong = cmlab.congruence_check(H, cmlab.standard_spec(p, sign))
            if not cong.passed:
                failures.append(disc)
    conclude(8, "CM placement", not failures,
             "12 rows crosschecked with bound 3; D=-28,-84 at bound 4; "
             f"D=-52,-104 at bound 7; failures={failures}")


def test_c09_quaternion_suite():
    orbit_ok = True
    for p in (5, 7, 13, 17):
        try:
            params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
            quatlab.orbit_analysis(params, quatlab.build_algebra(params))
        except CertificateError:
            orbit_ok = False
    image = quatlab.uniformizer_image_search()
    image_ok = {(e.c, e.d) for e in image} == {
        (2, 0), (5, 0), (0, 2), (0, 5), (3, 3), (3, 4), (4, 3), (4, 4)
    }
    parts = quatlab.aut_refinement()
    parts_ok = {frozenset((e.c, e.d) for e in part) for part in parts} == {
        frozenset({(2, 0), (5, 0)}),
        frozenset({(0, 2), (0, 5)}),
        frozenset({(3, 3), (4, 4)}),
        frozenset({(3, 4), (4, 3)}),
    }
    conclude(9, "quaternion suite", orbit_ok and image_ok and parts_ok,
             "orbits certified as norm fibres for p in {5,7,13,17}; image class and refinement exact")


def test_c10_genus_ledger():
    genus_ok = (
        ledger.genus_x0(125) == 8
        and ledger.genus_x0(343) == 26
        and ledger.genus_x0(2197) == 184
        and ledger.genus_x0(4913) == 417
    )
    mass_ok = all(
        ledger.ss_survey(p).mass == F(p - 1, 24)
        for p in range(5, 100)
        if ledger.is_prime(p)
    )
    def budget(p):
        return ledger.component_budget(p, ledger.ss_survey(p), ledger.genus_x0(p**3))

    budget_ok = (
        budget(5) == ledger.genus_x0(125) == 8
        and budget(7) <= 26
        and budget(13) <= 184
        and budget(17) <= 417
    )
    exponents_ok = True
    for p, exponent, center in ((5, 2, 0), (7, 4, 1728), (13, 14, 5)):
        survey = ledger.ss_survey(p)
        aut = survey.entries[0][0]
        if quatlab.class_count(p, aut) != exponent:
            exponents_ok = False
        if cmlab.standard_spec(p, "-").center != center:
            exponents_ok = False
        if ledger.supersingular_j_invariants(p) != (center % p,):
            exponents_ok = False
    conclude(10, "genus ledger", genus_ok and mass_ok and budget_ok and exponents_ok,
             "genera 8/26/184/417; mass formula on 5 <= p < 100; budgets; "
             "exponents 2/4/14 with centers 0/1728/5")

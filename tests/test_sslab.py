from fractions import Fraction as F

import pytest

from stablelab import CertificateError, sslab
from stablelab.exactmath import ParamPolygon, PolygonCell, SymbolicPolynomial, val_rat


@pytest.fixture(scope="module")
def polygon():
    return sslab.torsion_polygon(sslab.division_polynomial_5())


def test_division_polynomial_shape():
    psi5 = sslab.division_polynomial_5()
    assert psi5.degree("x") == 12
    assert psi5.coefficient("x", 12) == 5
    assert psi5.coefficient("x", 10) == 62 * sslab.t
    assert val_rat(62, 5) == 0


def test_division_polynomial_specialization():
    psi5 = sslab.division_polynomial_5()
    at0 = psi5.substitute("t", 0)
    assert at0.degree("x") == 12
    coeffs = [at0.coefficient("x", k) for k in range(13)]
    for c in coeffs:
        assert c.is_constant() and c.constant_value().denominator == 1


def _ec_points(q, a, b):
    points = [None]  # identity
    for xx in range(q):
        rhs = (xx**3 + a * xx + b) % q
        for yy in range(q):
            if (yy * yy) % q == rhs:
                points.append((xx, yy))
    return points


def _ec_add(P, Q, a, q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if P == Q:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (slope * slope - x1 - x2) % q
    return (x3, (slope * (x1 - x3) - y1) % q)


def _ec_mul(k, P, a, q):
    acc = None
    add = P
    while k:
        if k & 1:
            acc = _ec_add(acc, add, a, q)
        add = _ec_add(add, add, a, q)
        k >>= 1
    return acc


def test_division_polynomial_against_group_law():
    """Independent oracle: over small prime fields, the rational points of
    order 5 are exactly the rational roots of psi_5 whose y is rational."""
    psi5 = sslab.division_polynomial_5()
    seen_torsion = 0
    for q in (11, 31, 41):
        for t0 in (1, -1, 2, 3):
            a = t0 % q
            if (4 * a**3 + 27) % q == 0:  # singular specialization
                continue
            values = {
                xx: int(psi5.evaluate({"x": F(xx), "t": F(t0)})) % q for xx in range(q)
            }
            points = _ec_points(q, a, 1 % q)
            torsion_x = set()
            for P in points[1:]:
                if _ec_mul(5, P, a, q) is None:
                    torsion_x.add(P[0])
                    seen_torsion += 1
            # order-5 points vanish on psi_5
            for xx in torsion_x:
                assert values[xx] == 0
            # rational psi_5 roots with rational y are order-5 points
            squares = {(yy * yy) % q for yy in range(q)}
            for xx, value in values.items():
                if value == 0 and (xx**3 + a * xx + 1) % q in squares:
                    assert xx in torsion_x
    assert seen_torsion > 0


def test_torsion_polygon_breakpoint(polygon):
    assert polygon.breakpoints == (F(5, 6),)
    assert polygon.vertex_sets() == ((0, 10, 12), (0, 12))
    assert sslab.too_ss_threshold(polygon) == 3 * F(5, 6)


def test_torsion_profile_below(polygon):
    profile = sslab.torsion_profile(polygon, F(1, 2))
    assert profile.x_root_valuations == ((F(-1, 4), 2), (F(-1, 20), 10))
    assert profile.z_valuations == ((F(1, 40), 20), (F(1, 8), 4))
    assert profile.canonical_subgroup


def test_torsion_profile_above(polygon):
    profile = sslab.torsion_profile(polygon, F(9, 10))
    assert profile.x_root_valuations == ((F(-1, 12), 12),)
    assert profile.z_valuations == ((F(1, 24), 24),)
    assert not profile.canonical_subgroup


def test_torsion_profile_point_bookkeeping(polygon):
    for lam in (F(1, 10), F(1, 3), F(2, 3), F(33, 40), F(9, 10), F(99, 100)):
        profile = sslab.torsion_profile(polygon, lam)
        assert sum(n for _, n in profile.z_valuations) == 24
        assert sum(n for _, n in profile.x_root_valuations) == 12
        # canonical subgroup points sit strictly closer to the origin
        if profile.canonical_subgroup:
            near = max(v for v, _ in profile.z_valuations)
            assert dict(profile.z_valuations)[near] == 4


@pytest.mark.parametrize("mutant, reason", [
    (lambda psi5: psi5 + sslab.x**13, "must have negative valuation"),  # a root at v(x) = 1
    (lambda psi5: psi5 * (5 * sslab.x - 1), "24 nonzero 5-torsion points"),  # 13 x-roots
])
def test_torsion_profile_rejects_a_wrong_division_polynomial(mutant, reason):
    polygon = sslab.torsion_polygon(mutant(sslab.division_polynomial_5()))
    with pytest.raises(CertificateError, match=reason):
        sslab.torsion_profile(polygon, F(1, 2))


def test_torsion_profile_boundary_errors(polygon):
    with pytest.raises(ValueError):
        sslab.torsion_profile(polygon, F(5, 6))
    with pytest.raises(ValueError):
        sslab.torsion_profile(polygon, F(0))
    with pytest.raises(ValueError):
        sslab.torsion_profile(polygon, F(1))


def test_too_ss_threshold(polygon):
    assert sslab.too_ss_threshold(polygon) == F(5, 2)
    num, den = sslab.weierstrass_j(sslab.t, SymbolicPolynomial.constant(1))
    assert num == 6912 * sslab.t**3
    assert den == 4 * sslab.t**3 + 27
    # v5(4t^3 + 27) = 0 whenever v5(t) > 0 since 27 is a unit
    assert val_rat(27, 5) == 0
    # v(j) at the breakpoint: 3 * 5/6 = 5/2
    assert 3 * polygon.breakpoints[0] == F(5, 2)


def test_threshold_reads_the_polygon_breakpoint(polygon):
    """The threshold is 3 times the polygon's breakpoint, not a literal: a
    polygon whose breakpoint moved to 2/3 gives 2, and the check fails.
    v(j) = 3 v(t) is certified on the polygon's range: on -1 < v(t) < 1 the
    piece 3 v(t) of 4t^3 undercuts the unit 27, and the certificate fails."""
    from stablelab.checks.ss import _check_threshold

    def cells(*ends_and_vertices):  # the threshold reads no segment
        return ParamPolygon(tuple(
            PolygonCell(F(lo), F(hi), vertices, ()) for lo, hi, vertices in ends_and_vertices
        ))

    moved = cells((0, F(2, 3), (0, 10, 12)), (F(2, 3), 1, (0, 12)))
    assert moved.breakpoints == (F(2, 3),)
    assert sslab.too_ss_threshold(moved) == 2
    with pytest.raises(CertificateError, match="^threshold 2$"):
        _check_threshold(moved)
    assert _check_threshold(polygon).endswith("threshold v5(j) >= 5/2")
    single = cells((0, 1, (0, 12)))
    with pytest.raises(CertificateError, match="not one"):
        sslab.too_ss_threshold(single)
    wide = cells((-1, F(5, 6), (0, 10, 12)), (F(5, 6), 1, (0, 12)))
    assert (wide.lo, wide.hi, wide.breakpoints) == (-1, 1, (F(5, 6),))
    with pytest.raises(CertificateError, match="v\\(j\\) = 3 v\\(t\\) is not certified"):
        sslab.too_ss_threshold(wide)
    # on -1 < v(t) < 0 the piece 3 v(t) of 4t^3 dominates, so v(j) = 0: an
    # image that exists but is not 3 v(t) fails too
    negative = cells((-1, F(-1, 2), (0, 10, 12)), (F(-1, 2), 0, (0, 12)))
    with pytest.raises(CertificateError, match="v\\(j\\) = 3 v\\(t\\) is not certified"):
        sslab.too_ss_threshold(negative)

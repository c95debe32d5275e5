import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablelab import CertificateError, curve125
from stablelab.exactmath import (
    INF,
    Affine,
    SymbolicPolynomial,
    min_valuation,
    newton_polygon,
    normal_form,
    poly_to_coeffs,
    root_valuation_multiset,
    sym,
    symbol_valuations,
    univariate_gcd,
    univariate_mul,
    val_rat,
)
from stablelab.exactmath.resultant import interpolate_integer_polynomial, resultant_coeffs

r, x, y = sym("r"), sym("x"), sym("y")


@pytest.fixture(scope="module")
def g_plus():
    return curve125.build_shifted_model()


@pytest.fixture(scope="module")
def hensel(g_plus):
    return curve125.hensel_certificate(g_plus)


@pytest.fixture(scope="module")
def hensel_pieces(g_plus):
    return curve125._hensel_pieces(g_plus)


def test_plus_curve_model_terms():
    f_plus = curve125.F_PLUS
    # the published quintic-quartic has 14 monomials (the shifted model's
    # table has 16 nonzero cells; see test_table1_spot_values)
    assert len(f_plus.terms) == 14
    assert f_plus.coefficient("x", 3).coefficient("y", 1) == 25
    assert f_plus.coefficient("x", 0).coefficient("y", 0) == 25
    assert curve125.FIBER == x * sym("u") ** 2 - y * sym("u") + 5


def test_table1_spot_values():
    table = curve125.TABLE1
    assert table[(4, 0)] == -5 * r + 25
    assert table[(0, 4)] == 1
    assert (5, 1) not in table  # empty cell
    g_plus = curve125.build_shifted_model()
    assert g_plus.coefficient("x0", 5).coefficient("y", 1).is_zero()
    assert g_plus.coefficient("x0", 4).coefficient("y", 0) == -5 * r + 25
    assert g_plus.coefficient("x0", 0).coefficient("y", 0) == (
        25 * r**4 - 25 * r**3 + 25 * r**2
    )


def test_shifted_model_roundtrip():
    g_plus = curve125.build_shifted_model()
    back = normal_form(g_plus.substitute("x0", x - r), [curve125.R_SYMBOL])
    assert back == curve125.F_PLUS


def test_ramification_valuation_table():
    ram = curve125.ramification_polynomials()
    assert len(ram.p_ram_y) == 11 and len(ram.p_ram_x) == 11
    vals = [val_rat(c, 5) for c in ram.p_ram_y]
    assert vals == [7, 7, 6, 6, 5, 5, 4, 4, 3, INF, 0]
    assert ram.p_ram_y[9] == 0  # a_9 vanishes exactly


def test_ramification_polygons():
    ram = curve125.ramification_polynomials()
    assert root_valuation_multiset(ram.p_ram_y, 5) == ((F(7, 10), 10),)
    # x = y^2/20 at the roots, so v(x) = 2*(7/10) - 1 = 2/5
    assert root_valuation_multiset(ram.p_ram_x, 5) == ((F(2, 5), 10),)


def test_ramification_polynomials_squarefree():
    ram = curve125.ramification_polynomials()
    for coeffs in (ram.p_ram_y, ram.p_ram_x):
        f = [F(c) for c in coeffs]
        df = [F((i + 1) * c) for i, c in enumerate(coeffs[1:])]
        assert univariate_gcd(f, df) == [F(1)]


def test_distance_multisets():
    ram = curve125.ramification_polynomials()
    assert ram.y_distance_multiset == ((F(7, 10), 50), (F(4, 5), 40))
    # computed fact: five cross-cluster pairs are strictly closer than 1/2
    assert ram.x_distance_multiset == ((F(1, 2), 80), (F(7, 10), 10))
    assert sum(n for _, n in ram.y_distance_multiset) == 90
    assert sum(n for _, n in ram.x_distance_multiset) == 90


def test_distance_multisets_consistency():
    """v(x_i - x_j) = v(y_i - y_j) + v(y_i + y_j) - 1: the observed x-multiset
    is forced by the y-difference and y-sum structure."""
    ram = curve125.ramification_polynomials()
    # in-cluster: 4/5 + 7/10 - 1 = 1/2 (40 pairs); generic cross:
    # 7/10 + 4/5 - 1 = 1/2 (40 pairs); special cross: 7/10 + 1 - 1 = 7/10
    assert F(4, 5) + F(7, 10) - 1 == F(1, 2)
    assert F(7, 10) + F(1) - 1 == F(7, 10)
    assert ram.x_distance_multiset == ((F(1, 2), 80), (F(7, 10), 10))


def test_p_ram_x_even_odd_route():
    """Independent construction of p_ram_x: split f+ into even/odd y-parts on
    y^2 = 20x; the resultant must equal E^2 - 20x * O^2 up to sign."""
    even = SymbolicPolynomial.zero()
    odd = SymbolicPolynomial.zero()
    for e, coeff_poly in curve125.F_PLUS.as_univariate("y").items():
        replaced = coeff_poly * (20 * x) ** (e // 2)
        if e % 2 == 0:
            even = even + replaced
        else:
            odd = odd + replaced
    candidate = even * even - 20 * x * odd * odd
    ram = curve125.ramification_polynomials()
    coeffs = [int(c) for c in poly_to_coeffs(candidate, "x")]
    assert coeffs == list(ram.p_ram_x) or coeffs == [-c for c in ram.p_ram_x]


def test_p_ram_x_sylvester_interpolation_route():
    """Third route to p_ram_x: Res_y(f+(x0, y), y^2 - 20*x0) by Sylvester/Bareiss
    at 11 integer points x0, then interpolation (f+ is monic in y, so the
    resultant commutes with specialising x)."""
    f_plus = curve125.F_PLUS
    samples = []
    for x0 in range(-5, 6):
        f_y = [int(c) for c in poly_to_coeffs(f_plus.substitute("x", x0), "y")]
        samples.append((x0, resultant_coeffs(f_y, [-20 * x0, 0, 1])))
    ram = curve125.ramification_polynomials()
    assert interpolate_integer_polynomial(samples) == list(ram.p_ram_x)


def test_x_distances_via_y_route():
    """Second, p_ram_x-free route to the x-distance multiset: the monic image
    of p_ram_y under y -> y^2 has roots y_i^2 = 20*x_i, so its distance
    multiset shifted by -v(20) must reproduce the x-distance multiset."""
    ram = curve125.ramification_polynomials()
    even = [0] * 6
    odd = [0] * 5
    for i, c in enumerate(ram.p_ram_y):
        if i % 2 == 0:
            even[i // 2] = c
        else:
            odd[i // 2] = c

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for k, cb in enumerate(b):
                out[i + k] += ca * cb
        return out

    squared_roots = mul(even, even)  # E(x)^2 - x*O(x)^2 has roots y_i^2
    shifted = [0] + mul(odd, odd)
    shifted += [0] * (len(squared_roots) - len(shifted))
    p2 = [a - b for a, b in zip(squared_roots, shifted)]
    assert len(p2) == 11 and abs(p2[-1]) == 1
    dist = curve125.pairwise_distance_valuations(p2)
    rescaled = tuple(sorted((v - 1, n) for v, n in dist))  # divide roots by 20
    assert rescaled == ram.x_distance_multiset


def test_two_cluster_combinatorics():
    assert curve125.cluster_sizes(((F(7, 10), 50), (F(4, 5), 40))) == (5, 5)
    with pytest.raises(CertificateError, match="does not cover all ordered pairs"):
        curve125.cluster_sizes(((F(7, 10), 50), (F(4, 5), 30)))


def test_cluster_sizes_rejects_what_forces_no_single_partition():
    """Three distance values are not a near/far split; 78 far and 12 near
    ordered pairs give a sum of squares 22, which (4,1,1,1,1,1,1),
    (3,3,1,1,1,1) and (3,2,2,2,1) all realise; 2 far and 88 near give 98,
    which no partition of 10 realises."""
    with pytest.raises(CertificateError, match="expected exactly two distance values"):
        curve125.cluster_sizes(((F(1, 2), 30), (F(7, 10), 30), (F(4, 5), 30)))
    ambiguous = [(4, 1, 1, 1, 1, 1, 1), (3, 3, 1, 1, 1, 1), (3, 2, 2, 2, 1)]
    with pytest.raises(CertificateError, match=re.escape(f"ambiguous: {ambiguous}")):
        curve125.cluster_sizes(((F(1, 2), 78), (F(7, 10), 12)))
    with pytest.raises(CertificateError, match=re.escape("ambiguous: []")):
        curve125.cluster_sizes(((F(1, 2), 2), (F(7, 10), 88)))


def test_pairwise_distance_trivial_example():
    assert curve125.pairwise_distance_valuations([-1, 0, 1]) == ((F(0), 2),)
    assert curve125.pairwise_distance_valuations([-1, 0, 1, 0]) == ((F(0), 2),)


def test_pairwise_distance_rejects_non_squarefree():
    with pytest.raises(CertificateError, match="not squarefree"):
        curve125.pairwise_distance_valuations([1, 2, 1])  # (x+1)^2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-12, 12), st.integers(1, 3), min_size=1, max_size=3),
       st.integers(-30, 30).filter(bool))
@example({0: 2, 1: 1}, 1)  # x^2 (x - 1): the repeated root is 0
@example({5: 3}, 1)  # a cube
@example({0: 1, 5: 1, 30: 1}, 25)
def test_pairwise_distance_squarefree_by_zero_order(roots, lead):
    """lead * prod (x - a)^m is rejected exactly when some m > 1; otherwise
    the distance counts cover the n(n - 1) ordered pairs of distinct roots."""
    f = [lead]
    for a, m in roots.items():
        for _ in range(m):
            f = univariate_mul(f, [-a, 1])
    if max(roots.values()) > 1:
        with pytest.raises(CertificateError, match="not squarefree"):
            curve125.pairwise_distance_valuations(f)
        return
    distances = curve125.pairwise_distance_valuations(f)
    n = len(roots)
    assert sum(count for _, count in distances) == n * (n - 1)
    assert dict(distances) == Counter(val_rat(a - b, 5) for a in roots for b in roots if a != b)


def test_dominance_certificate(g_plus):
    assert curve125.verify_dominance_eq3(g_plus) is None
    assignment = {**symbol_valuations([curve125.R_SYMBOL], 5), **curve125.EQ3_ASSIGNMENT}
    mv = min_valuation(g_plus, assignment, 5)
    assert mv.witnesses == ((("x0", 1),), (("x0", 5),), (("y", 2),))
    assert mv.value == F(5, 2)
    minima = [min_valuation(g_plus.coefficient("x0", i), assignment, 5).value for i in range(6)]
    assert minima == [F(5, 2), 2, 2, F(9, 5), F(7, 5), 0]
    assert newton_polygon(minima).root_valuations() == ((F(1, 2), 5),)
    rest = SymbolicPolynomial({m: c for m, c in g_plus.items() if m not in mv.witnesses})
    assert min_valuation(rest, assignment, 5).value > F(5, 2)
    # a competing monomial stays strictly above: 25*x0^3*y at 2 + 3/2 + 3/4
    assert min_valuation(25 * curve125.x0**3 * y, curve125.EQ3_ASSIGNMENT, 5).value == F(17, 4)


@pytest.mark.parametrize(
    "change",
    [5 * y**2, 5 * curve125.x0**5, -25 * curve125.x0],
    ids=["20y^2", "4x0^5", "-50x0"],
)
def test_eq3_rejects_a_wrong_coefficient(g_plus, change):
    """The mutant keeps the three dominant monomials x0^5, x0, y^2 but not
    the paper's coefficients -1, -25, 15, so only the valuation-5/2 part
    itself tells it from g+."""
    with pytest.raises(CertificateError, match="valuation-5/2 part is .*, not 15\\*y\\^2"):
        curve125.verify_dominance_eq3(g_plus + change)


_X, _Y = sym("x"), sym("y")
_LEVELS = {"x": F(1, 2), "y": F(0)}  # v(x^2) = v(5y) = 1, v(25) = 2


def test_verify_reduction_returns_the_next_level():
    margin = curve125.verify_reduction(_X**2 + 5 * _Y + 25, _LEVELS, F(1), _X**2 + 5 * _Y)
    assert margin == 2 and isinstance(margin, F)
    assert curve125.verify_reduction(_X**2 + 5 * _Y, _LEVELS, F(1), _X**2 + 5 * _Y) == INF


def test_verify_reduction_rejects_a_monomial_below_the_level():
    with pytest.raises(CertificateError, match="lie below valuation 3/2"):
        curve125.verify_reduction(_X**2 + 5 * _Y + 25, _LEVELS, F(3, 2), SymbolicPolynomial.constant(25))


def test_verify_reduction_rejects_a_wrong_part():
    with pytest.raises(CertificateError, match="valuation-1 part is 5\\*y \\+ x\\^2, not"):
        curve125.verify_reduction(_X**2 + 5 * _Y + 25, _LEVELS, F(1), _X**2 - 5 * _Y)


def test_eq4_reduction(g_plus):
    assert curve125.reduction_eq4(g_plus) == F(1, 4)
    # the certified valuation-0 part y1^2 - x1^5/3 - x1/3 reduces to
    # y1^2 + 3 x1^5 + 3 x1 over F5, the residue y1^2 = 2 x1^5 + 2 x1
    residues = [c.numerator * pow(c.denominator, -1, 5) % 5 for c in (F(1), F(-1, 3), F(-1, 3))]
    assert residues == [1, 3, 3]
    # the scaling valuations behind the residue: v(alpha^5/(15 beta^2)) = 0
    assert 5 * F(1, 2) - (1 + 2 * F(3, 4)) == 0
    assert 2 - 4 * F(1, 2) == 0  # v(25 / alpha^4)


def _lowest(pieces, lam):
    """The least value of the pieces at lambda, with the pieces attaining it."""
    least = min(fn(lam) for fn in pieces)
    return least, tuple(fn for fn in pieces if fn(lam) == least)


def test_hensel_certificate(g_plus, hensel_pieces):
    assert curve125.hensel_certificate(g_plus) == F(2, 25)  # v(h(1)) at v(s) = 6/25
    h1_pieces, hp1_pieces = hensel_pieces
    lo, hi = curve125.HENSEL_INTERVAL
    (lo_min, lo_wit), (hi_min, hi_wit) = (_lowest(h1_pieces, e) for e in (lo, hi))
    assert lo_min == 0 and hi_min == 0
    assert len(lo_wit) == 1 and len(hi_wit) == 1
    # the boundary witnesses: s^20/225 (from y^4) and -25 s^2 (from -25*x0)
    assert lo_wit[0].constant == -2 and lo_wit[0].slope == 10
    assert hi_wit[0].constant == 2 and hi_wit[0].slope == -8
    assert _lowest(h1_pieces, curve125.RAM_CIRCLE)[0] == F(2, 25)
    assert [_lowest(hp1_pieces, e)[0] for e in (lo, hi)] == [0, 0]


def _positive_at_every_crossing(pieces, lo, hi):
    """The all-crossings rule, the concavity rule's oracle: the envelope is
    > 0 at every lambda in (lo, hi) where two pieces meet, at the midpoint
    and at the ramification circle."""
    distinct = sorted(set(pieces))
    points = {(lo + hi) / 2, curve125.RAM_CIRCLE}
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
            rho = (a - b).root()
            if rho is not None and lo < rho < hi:
                points.add(rho)
    return all(_lowest(pieces, lam)[0] > 0 for lam in points)


def test_hensel_envelope_is_positive_at_every_crossing(hensel_pieces):
    assert _positive_at_every_crossing(hensel_pieces[0], *curve125.HENSEL_INTERVAL)


def _certifies(certificate, *args):
    """True when the certificate holds on ``args``, False when it raises."""
    try:
        certificate(*args)
    except CertificateError:
        return False
    return True


def _through(lo, hi, at_lo, at_hi):
    """The affine piece taking the value at_lo at lo and at_hi at hi."""
    slope = (at_hi - at_lo) / (hi - lo)
    return Affine(at_lo - slope * lo, slope)


_POSITIVE = st.integers(1, 40).map(lambda n: F(n, 20))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    shared=st.booleans(),
    lo_rise=_POSITIVE,
    hi_rise=_POSITIVE,
    others=st.lists(st.tuples(_POSITIVE, _POSITIVE), max_size=8),
)
def test_concavity_rule_agrees_with_the_crossings_rule(hensel_pieces, shared, lo_rise, hi_rise, others):
    """Every piece set whose envelope is 0 at both ends with unique witnesses:
    one piece is 0 at lo, one is 0 at hi (the same piece when ``shared``),
    and every other piece is positive at both ends.  The certificate's
    concavity rule and the all-crossings rule give the same verdict."""
    lo, hi = curve125.HENSEL_INTERVAL
    if shared:
        pieces = [_through(lo, hi, F(0), F(0))]
    else:
        pieces = [_through(lo, hi, F(0), lo_rise), _through(lo, hi, hi_rise, F(0))]
    pieces += [_through(lo, hi, a, b) for a, b in others]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve125, "_hensel_pieces", lambda _: (tuple(pieces), hensel_pieces[1]))
        certified = _certifies(curve125.hensel_certificate, None)
    assert certified == _positive_at_every_crossing(pieces, lo, hi) == (not shared)


@pytest.mark.parametrize(
    "extra",
    [
        Affine(F(0), F(0)),  # flat zero: ties both ends and touches 0 inside
        Affine(F(-2), F(9)),  # -1/5 at v(s) = 1/5, positive from 2/9 on
    ],
)
def test_hensel_rejects_an_extra_h1_piece(g_plus, hensel_pieces, monkeypatch, extra):
    h1_pieces, hp1_pieces = hensel_pieces
    monkeypatch.setattr(curve125, "_hensel_pieces", lambda _: ((*h1_pieces, extra), hp1_pieces))
    with pytest.raises(CertificateError, match="not certified > 0"):
        curve125.hensel_certificate(g_plus)


@pytest.mark.parametrize(
    "extra",
    [
        Affine(F(1), F(-5)),  # 0 at v(s) = 1/5, negative inside the annulus
        Affine(F(0), F(0)),  # a second constant piece: two witnesses could cancel
    ],
)
def test_hensel_rejects_an_extra_hp1_piece(g_plus, hensel_pieces, monkeypatch, extra):
    h1_pieces, hp1_pieces = hensel_pieces
    monkeypatch.setattr(curve125, "_hensel_pieces", lambda _: (h1_pieces, (*hp1_pieces, extra)))
    with pytest.raises(CertificateError, match="constant piece 0 of v\\(h'\\(1\\)\\)"):
        curve125.hensel_certificate(g_plus)


def test_hensel_pieces_are_one_per_monomial(g_plus, monkeypatch):
    """x0^5 y^2 / 5 lands on the monomial s^20 of the y^4 witness
    (1/225 + 1/75 = 4/225, still valuation -2), so it is no second witness
    and the certificate still passes.  Two distinct monomials sharing the
    piece -2 + 10 v(s) could cancel, so they are two witnesses and fail."""
    curve125.hensel_certificate(g_plus + curve125.x0**5 * y**2 / 5)
    real = curve125.param_valuations
    witness = Affine(F(-2), F(10))

    def with_twin(f, *args):
        pieces = real(f, *args)
        return pieces + [(fn, (("twin", 1), *mono)) for fn, mono in pieces if fn == witness]

    monkeypatch.setattr(curve125, "param_valuations", with_twin)
    with pytest.raises(CertificateError):
        curve125.hensel_certificate(g_plus)


def test_eq6_reduction(hensel):
    assert hensel == F(2, 25)
    assert curve125.reduction_eq6(hensel) == F(2, 25)
    # the target's coefficients alpha^5/(sqrt15 beta r) and 5/(beta^2 r) are
    # units: v(alpha) = 6/25, v(sqrt15) = 1/2, v(beta) = 3/10, v(r) = 2/5
    v_alpha, v_beta = curve125.RAM_CIRCLE, F(3, 10)
    v_sqrt15, v_r = curve125.SQRT15_SYMBOL.valuation, curve125.R_SYMBOL.valuation
    assert 5 * v_alpha - v_sqrt15 - v_beta - v_r == 0
    assert 1 - 2 * v_beta - v_r == 0


@pytest.mark.parametrize("wrong", [(r**4 + 24) / 25, (r**4 + 50) / 25],
                         ids=["wrong-valuation", "right-valuation"])
def test_eq6_certifies_the_inverse_of_r(hensel, monkeypatch, wrong):
    """eq 6 scales by 1/r.  A wrong R_INVERSE enters the scaled fiber and the
    target alike, so (r^4 + 50)/25, which has the valuation -2/5 of 1/r,
    passes every residue test and only r * R_INVERSE = 1 rejects it."""
    curve125.reduction_eq6(hensel)
    monkeypatch.setattr(curve125, "R_INVERSE", wrong)
    with pytest.raises(CertificateError, match="is not 1/r"):
        curve125.reduction_eq6(hensel)


#: cell -> what eq 3 and eq 4 find wrong in the mutant
_CELL_REASONS = {
    (2, 2): ("valuation-5/2 part is .*16\\*x0\\^2\\*y\\^2", "valuation-0 part is .*16/3\\*x1\\^2\\*y1\\^2"),
    (1, 0): ("\\(\\('x0', 1\\),\\)\\] lie below valuation 5/2", "\\(\\('x1', 1\\),\\)\\] lie below valuation 0"),
}


@pytest.mark.parametrize("cell, delta", [((2, 2), 1), ((1, 0), 5)])
def test_one_wrong_table1_cell_fails_every_model_certificate(g_plus, cell, delta):
    """A g+ with one perturbed cell (15 -> 16 on x0^2 y^2 adds a monomial at
    valuation 5/2; 5 added to the x0 coefficient puts 20*x0 below it) is
    rejected by eq 3, eq 4 and the Hensel envelope."""
    i, j = cell
    mutant = g_plus + delta * curve125.x0**i * y**j
    eq3_reason, eq4_reason = _CELL_REASONS[cell]
    with pytest.raises(CertificateError, match=eq3_reason):
        curve125.verify_dominance_eq3(mutant)
    with pytest.raises(CertificateError, match=eq4_reason):
        curve125.reduction_eq4(mutant)
    with pytest.raises(CertificateError):
        curve125.hensel_certificate(mutant)


def test_eq6_fails_without_a_positive_hensel_bound():
    with pytest.raises(CertificateError, match="Hensel error bound 0 is not positive"):
        curve125.reduction_eq6(F(0))


def test_fiber_square_identity(monkeypatch):
    assert curve125.fiber_square_identity() is None
    u = sym("u")
    assert (2 * x * u - y) ** 2 - (y**2 - 20 * x) == 4 * x * curve125.FIBER
    # u = y/(2x) kills (2xu - y)^2, so y^2 - 20x = -4x * fiber / x-part there;
    # numeric check at x=1, y=0, u=t: (2t)^2 + 20 = 4(t^2 + 5)
    t = sym("t")
    assert (2 * t) ** 2 + 20 == 4 * (t**2 + 5)
    monkeypatch.setattr(curve125, "FIBER", curve125.FIBER + 1)
    with pytest.raises(CertificateError, match="nonzero remainder"):
        curve125.fiber_square_identity()


def test_reduction_certificates_carry_exact_rationals(g_plus, hensel):
    """Residual minima and the Hensel bound are positive Fractions computed
    exactly, never floats."""
    values = [
        curve125.reduction_eq4(g_plus),
        curve125.reduction_eq6(hensel),
        hensel,
    ]
    for value in values:
        assert isinstance(value, F) and value > 0


def test_min_valuation_lower_bound_on_evaluations():
    """The generic minimum bounds the valuation of any rational evaluation."""
    g_plus = curve125.build_shifted_model()
    # specialize x0 -> 5^k etc. only through valuation bookkeeping: use r = 0
    f = g_plus.substitute("r", 0)
    value = f.evaluate({"x0": F(5), "y": F(25)})
    mv = min_valuation(f, {"x0": F(1), "y": F(2)}, 5)
    assert val_rat(value, 5) >= mv.value

import math
import sys
import threading
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from stablelab import CertificateError, cmlab
from stablelab.exactmath.kernel import val_rat
from stablelab.exactmath.resultant import interpolate_integer_polynomial, resultant_coeffs


def test_reduced_forms_examples():
    assert [(f.a, f.b, f.c) for f in cmlab.reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
    assert [(f.a, f.b, f.c) for f in cmlab.reduced_forms(-4)] == [(1, 0, 1)]
    assert len(cmlab.reduced_forms(-80)) == 4
    with pytest.raises(ValueError):
        cmlab.reduced_forms(-6)  # -6 = 2 mod 4
    with pytest.raises(ValueError):
        cmlab.reduced_forms(20)


def _is_reduced_by_inequalities(form):
    """|b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = form.a, form.b, form.c
    return abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)


def test_is_reduced_matches_the_inequalities():
    forms = [
        cmlab.QuadForm(a, b, c)
        for a in range(1, 16)
        for b in range(-24, 25)
        for c in range(1, 24)
        if b * b < 4 * a * c
    ]
    assert sum(map(_is_reduced_by_inequalities, forms)) > 1000
    for form in forms:
        assert form.is_reduced() == _is_reduced_by_inequalities(form), form


def test_reduced_forms_against_brute_force():
    """Class numbers agree with a direct scan of all reduced triples."""
    for disc in (-20, -80, -180, -120, -55, -280, -40, -160, -15, -60, -35, -260,
                 -4, -28, -84, -52, -104):
        if disc % 4 not in (0, 1):
            continue
        count = 0
        bound = math.isqrt(abs(disc) // 3) + 1
        for a in range(1, bound + 1):
            for b in range(-a, a + 1):
                for c in range(a, abs(disc)):
                    if b * b - 4 * a * c != disc:
                        continue
                    form = cmlab.QuadForm(a, b, c)
                    if _is_reduced_by_inequalities(form) and form.is_primitive():
                        count += 1
        assert count == len(cmlab.reduced_forms(disc)), disc


def test_reduced_form_invariants():
    for disc in (-20, -260, -120):
        for form in cmlab.reduced_forms(disc):
            assert form.discriminant() == disc
            assert form.is_reduced() and form.is_primitive()
            assert form.tau().imag_float() > 0.8


def _point(tau):
    """tau as an mpc at the working precision."""
    return mpc(mp.mpf(tau.re_num) / tau.den, tau.im_num * mp.sqrt(tau.n) / tau.den)


def _exact(x):
    """An mpmath real as an exact Fraction (an mpf is read, not rounded)."""
    sign, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


class Ball(NamedTuple):
    """A ball (re, im, rad) of cmlab with the scale 2^-bits it is read at."""

    re: int
    im: int
    rad: int
    bits: int


def _j(tau, precision):
    """The j(tau) ball at the scale of its build."""
    return Ball(*cmlab.j_tau(tau, precision), precision + cmlab.SERIES_GUARD_BITS)


def _mid(ball):
    """The midpoint (Re, Im) as exact Fractions."""
    return F(ball.re, 1 << ball.bits), F(ball.im, 1 << ball.bits)


def _rad(ball):
    return F(ball.rad, 1 << ball.bits)


def _offset2(ball, value=0):
    """|value - mid|^2, exactly, for an mpmath or Python number."""
    value = value if isinstance(value, mp.mpc) else mpc(value)
    re, im = _mid(ball)
    return (_exact(value.real) - re) ** 2 + (_exact(value.imag) - im) ** 2


def _inside(ball, value):
    return _offset2(ball, value) <= _rad(ball) ** 2


def _mid_mpc(ball):
    """The midpoint as an exact mpc."""
    with mp.workprec(max(ball.re.bit_length(), ball.im.bit_length(), 53)):
        return mpc(mp.ldexp(ball.re, -ball.bits), mp.ldexp(ball.im, -ball.bits))


def _within(ball, relative_bits):
    """rad <= 2^-relative_bits |mid|, exactly."""
    return (ball.rad << relative_bits) ** 2 <= ball.re**2 + ball.im**2


def test_j_special_values():
    j_i = _j(cmlab.Tau(0, 1, 1, 1), 192)
    assert _inside(j_i, 1728) and _rad(j_i) < F(1, 2**150)
    assert _offset2(j_i, 1728) < F(1, 2**300)  # |mid - 1728| < 2^-150
    j_rho = _j(cmlab.Tau(1, 1, 3, 2), 192)  # (1 + sqrt(-3)) / 2
    assert _inside(j_rho, 0)
    assert _rad(j_rho) < F(1, 2**40)
    assert _offset2(j_rho) < (F(1, 2**40) - _rad(j_rho)) ** 2  # |mid| + rad < 2^-40
    j_sqrt5 = _j(cmlab.Tau(0, 1, 5, 1), 256)
    re, _ = _mid(j_sqrt5)
    assert 1264538 < re - _rad(j_sqrt5)
    assert re + _rad(j_sqrt5) < 1264539
    with pytest.raises(ValueError):
        cmlab.j_tau(cmlab.Tau(0, -1, 1, 1), 128)


def test_class_polynomial_values():
    assert cmlab.class_polynomial(-20).coefficients == (-681472000, -1264000, 1)
    assert cmlab.class_polynomial(-4).coefficients == (-1728, 1)
    assert cmlab.class_polynomial(-28).coefficients == (-16581375, 1)


def test_class_polynomial_residual_and_stability():
    poly = cmlab.class_polynomial(-20)
    assert poly.max_rounding_error < 1e-6
    assert isinstance(poly.max_rounding_error, F)
    # residual |H(j(tau))| at doubled precision
    prec = 2 * poly.precision_used
    for form in cmlab.reduced_forms(-20):
        root = _mid_mpc(_j(form.tau(), prec))
        with mp.workprec(prec):
            value = mp.mpf(0)
            for c in reversed(poly.coefficients):
                value = value * root + c
            assert abs(value) < mp.mpf(2) ** (-poly.precision_used // 2)
    # identical integers at a doubled starting precision
    taus = [form.tau() for form in cmlab.reduced_forms(-20)]
    again, _, _ = cmlab.polynomial_from_taus(taus, 2 * poly.precision_used)
    assert again == poly.coefficients


def _j_by_e4_delta(tau, precision):
    """Reference j = E4^3 / Delta from the q-expansions E4 = 1 + 240 sum sigma3(n) q^n
    and Delta = q prod (1 - q^n)^24, cut where |q|^n < 2^-(precision + 64)."""
    with mp.workprec(precision + 64):
        q = mp.exp(2j * mp.pi * tau)
        terms = int(mp.ceil((precision + 64) * mp.ln(2) / (2 * mp.pi * tau.imag))) + 2
        sigma3 = [0] * (terms + 1)
        for d in range(1, terms + 1):
            for multiple in range(d, terms + 1, d):
                sigma3[multiple] += d**3
        e4, product, qn = mpc(1), mpc(1), mpc(1)
        for n in range(1, terms + 1):
            qn *= q
            e4 += 240 * sigma3[n] * qn
            product *= 1 - qn
        return e4**3 / (q * product**24)


ORACLE_DISCRIMINANTS = tuple(row.discriminant for row in cmlab.table_rows()) + (
    -28, -84, -52, -104
)


@pytest.mark.parametrize("disc", ORACLE_DISCRIMINANTS)
def test_j_eta_quotient_matches_e4_delta_oracle(disc):
    """The E4^3 / Delta q-expansion, computed 128 bits beyond the ball's
    precision, lies inside the eta-quotient ball, and the ball's radius is at
    most 2^-precision |j|, at the starting precision of D and at twice it, on
    every tau of the table row of D and on every reduced form of D."""
    rows = {row.discriminant: row for row in cmlab.table_rows()}
    taus = [form.tau() for form in cmlab.reduced_forms(disc)]
    if disc in rows:
        taus += list(rows[disc].taus)
    base = cmlab.start_precision(disc)
    for precision in (base, 2 * base):
        for tau in taus:
            ball = _j(tau, precision)
            with mp.workprec(precision + 192):
                reference = _j_by_e4_delta(_point(tau), precision + 128)
            assert _inside(ball, reference), (disc, tau)
            assert _within(ball, precision), (disc, tau)


def test_j_balls_of_a_large_discriminant():
    """D = -4004 (h = 40): the forms reach Im tau = sqrt(1001), |q| < 2^-280,
    where 1/q must keep its own relative precision; every ball holds the
    E4^3 / Delta value and has radius at most 2^-(precision + 32) |j|."""
    precision = cmlab.start_precision(-4004)
    forms = cmlab.reduced_forms(-4004)
    assert len(forms) == 40 and forms[0].tau().imag_float() > 31
    for form in forms[::3]:
        ball = _j(form.tau(), precision)
        with mp.workprec(precision + 192):
            reference = _j_by_e4_delta(_point(form.tau()), precision + 128)
        assert _inside(ball, reference), form
        assert _within(ball, precision + 32), form


def test_j_ball_covers_a_short_series(monkeypatch):
    """The tail radius makes the ball hold for any cut of the pentagonal
    series: cut at half its length, the ball still contains j(tau) and has
    grown to cover the dropped terms."""
    taus = [form.tau() for form in cmlab.reduced_forms(-260)] + [cmlab.Tau(5, 1, 55, 10)]
    full = [_j(tau, 128) for tau in taus]
    length = cmlab._series_length
    monkeypatch.setattr(cmlab, "_series_length", lambda tau, precision: length(tau, precision) // 2)
    for tau, exact in zip(taus, full):
        ball = _j(tau, 128)
        with mp.workprec(400):
            assert _inside(ball, _j_by_e4_delta(_point(tau), 300)), tau
        assert ball.rad > 2**40 * exact.rad


_Q_TAUS = (
    [form.tau() for form in cmlab.reduced_forms(-660)]
    + [form.tau() for form in cmlab.reduced_forms(-4004)[::7]]  # Im tau up to 31.6
    + [tau for row in cmlab.table_rows() for tau in row.taus if not tau.form().is_reduced()]
)


def test_q_enclosure_and_tail_bound():
    """The q and 1/q balls hold exp(+-2 pi i tau) computed at 4x the
    precision, on reduced forms, on forms with large Im tau and on the
    non-reduced taus of the table rows, and the tail bound is at least
    |q|^(N+1) / (1 - |q|)."""
    assert any(not tau.form().is_reduced() for tau in _Q_TAUS)
    for tau in _Q_TAUS:
        for bits in (60, 300):
            length = cmlab._series_length(tau, bits)
            q, q_inverse = (Ball(*ball, bits) for ball in cmlab._q_pair(tau, bits))
            tail = cmlab._tail_bound(q[:3], bits, length)
            assert q.rad > 0 and q_inverse.rad > 0
            assert _within(q_inverse, bits - 16)
            with mp.workprec(4 * bits):
                exact = mp.exp(2j * mp.pi * _point(tau))
                assert _inside(q, exact), (tau, bits)
                assert _inside(q_inverse, 1 / exact), (tau, bits)
                assert F(tail, 2**bits) >= _exact(abs(exact) ** (length + 1) / (1 - abs(exact)))


@pytest.mark.parametrize("bits", [1, 8, 60, 300, 1500, 5000])
def test_pi_ball_holds_pi(bits):
    ball = Ball(*cmlab._pi(bits), bits)
    assert ball.im == 0 and 0 < ball.rad <= 2
    with mp.workprec(4 * bits + 64):
        assert _inside(ball, mp.pi)


@pytest.mark.parametrize("bits", [1, 8, 60, 300, 1500, 5000])
def test_pi_radius_counts_the_summation_error(bits):
    """1 ulp covers the final floor, and the summation error, positive and
    kept below 1 ulp by the guard bits, needs 1 more: the radius is 2 ulps,
    no fewer (the error counted) and no more (the guard bits suffice)."""
    assert cmlab._pi(bits)[2] == 2


@pytest.mark.parametrize("bits", [16, 64])
@pytest.mark.parametrize("length", [0, 3, 20])
@pytest.mark.parametrize(
    "re, im, modulus, rad",
    [
        (F(1, 2), F(0), F(1, 2), 0),
        (F(3, 8), F(-1, 2), F(5, 8), 0),  # a 3-4-5 triangle
        (F(-3, 4), F(0), F(3, 4), 5),
        (F(0), F(1, 16), F(1, 16), 1),
    ],
)
def test_tail_bound_holds_the_geometric_tail_of_the_q_ball(bits, length, re, im, modulus, rad):
    """The tail bound is at least sum_{e > N} |z|^e = |z|^(N+1) / (1 - |z|)
    for every z of the ball, whose largest |z| is |mid| + rad."""
    q = (int(re * 2**bits), int(im * 2**bits), rad)
    largest = modulus + F(rad, 2**bits)
    exact = largest ** (length + 1) / (1 - largest)
    assert F(cmlab._tail_bound(q, bits, length), 2**bits) >= exact


_EXP_ARGUMENTS = [(F(1, 3), F(-1, 7)), (F(-2, 5), F(1, 4)), (F(0), F(1, 2)), (F(-1, 2), F(0))]


@pytest.mark.parametrize("squarings", [0, 3, 10])
@pytest.mark.parametrize("bits", [16, 100, 700])
def test_exp_pair_holds_exp(bits, squarings):
    """Both exp balls hold exp(+-2^s x) computed at 4x the precision, for x
    at the centre and on the boundary of the argument ball."""
    for re, im in _EXP_ARGUMENTS:
        w = Ball(math.floor(re * 2**bits), math.floor(im * 2**bits), 3, bits)
        if abs(w.re) + abs(w.im) + w.rad > 1 << (bits - 1):
            with pytest.raises(ValueError):
                cmlab._exp_pair(w[:3], bits, squarings)
            continue
        up, down = (Ball(*ball, bits) for ball in cmlab._exp_pair(w[:3], bits, squarings))
        with mp.workprec(4 * bits + 64):
            for u in _UNIT_POINTS:
                x = _mid_mpc(w) + mp.ldexp(w.rad, -bits) * mpc(u)
                assert _inside(up, mp.exp(x * 2**squarings)), (re, im, u)
                assert _inside(down, mp.exp(-x * 2**squarings)), (re, im, u)


@pytest.mark.parametrize("bits", [16, 100, 700])
def test_exp_pair_radius_covers_the_series_tail(bits):
    """At 0 squarings the exp ball is the cut Taylor sum S_k(w), rebuilt here
    with the same ball steps, widened by at least its true dropped tail
    |exp(w) - S_k(w)| on top of the radius the rounding of those steps adds."""
    for re, im in _EXP_ARGUMENTS:
        w = Ball(math.floor(re * 2**bits), math.floor(im * 2**bits), 0, bits)
        if abs(w.re) + abs(w.im) > 1 << (bits - 1):
            continue
        total = term = (1 << bits, 0, 0)
        k = 0
        while abs(term[0]) + abs(term[1]) > 4:
            k += 1
            term = cmlab._ball_over(cmlab._ball_mul(term, w[:3], bits), k)
            total = cmlab._ball_sum(total, term)
        up, _ = cmlab._exp_pair(w[:3], bits, 0)
        assert up[:2] == total[:2]
        with mp.workprec(4 * bits + 64):
            z = _mid_mpc(w)
            tail = abs(mp.exp(z) - sum(z**i / mp.factorial(i) for i in range(k + 1)))
            assert F(up[2] - total[2], 2**bits) >= _exact(tail), (re, im, k)


def test_j_truncation_overflow():
    with pytest.raises(ValueError):
        cmlab.j_tau(cmlab.Tau(0, 1, 1, 10**6), 256)  # tau = 10^-6 i


def test_class_polynomial_rounding_escalation_fails_eventually():
    with pytest.raises(CertificateError, match="after precision escalation"):
        cmlab.polynomial_from_taus(
            [f.tau() for f in cmlab.reduced_forms(-260)], precision=4
        )


def test_cm_draw_pool_builds_at_start_precision():
    """Every D with 5 || D, |D| < 700 and h in {4, 6, 8} (the discriminants
    `verify cm --p 5` is benchmarked on, with the table rows among them)
    builds at start_precision(D) with no escalation."""
    pool = [d for d in range(-5, -700, -5)
            if d % 4 in (0, 1) and d % 25 and len(cmlab.reduced_forms(d)) in (4, 6, 8)]
    assert len(pool) == 34
    for d in pool:
        poly = cmlab.class_polynomial(d)
        assert poly.precision_used == cmlab.start_precision(d), d
        assert poly.max_rounding_error < F(1, 2**40), d


def test_class_polynomial_high_precision_has_nonzero_radii():
    """At 4096 bits every radius is far below 2^-1074, where a float would
    underflow to 0, yet it stays positive; the integers do not move."""
    forms = cmlab.reduced_forms(-260)
    coefficients, used, error = cmlab.polynomial_from_taus([f.tau() for f in forms], 4096)
    assert coefficients == cmlab.class_polynomial(-260).coefficients
    assert used == 4096
    assert 0 < error < F(1, 2**3000)
    bits = 4096 + cmlab.SERIES_GUARD_BITS
    roots = [_j(form.tau(), 4096) for form in forms]
    coeffs = [Ball(*c, bits) for c in cmlab.expand_product([root[:3] for root in roots], bits)]
    assert coeffs[-1].rad == 0  # the leading 1 is exact
    assert all(0 < ball.rad and _within(ball, 3000) for ball in roots + coeffs[:-1])


def test_ball_build_is_pinned_bit_for_bit():
    """Every midpoint and radius bit of a j ball, of the two roots of D = -20
    and of the build of H_(-95), where the golden report pins only the
    rounded bound 2^-k: a ball rule that moves any bit fails here."""
    assert cmlab.j_tau(cmlab.Tau(0, 1, 1, 1), 192) == (
        200088730202082385691930662095012704770450533502226894660182705165673888017809408,
        0,
        8472940,
    )
    assert cmlab.start_precision(-20) == 64
    roots = [cmlab.j_tau(form.tau(), 64) for form in cmlab.reduced_forms(-20)]
    assert roots == [
        (430300293179823150975619169472754918831636232, 0, 4026161329),
        (-183381391756933157913665678999899595674158, -3595, 3212643),
    ]
    poly = cmlab.class_polynomial(-95)
    assert (poly.degree, poly.precision_used) == (8, 186)
    assert poly.coefficients == (
        107789694576540010002976771996177148681640625,
        2110631639116675267953915424764056884765625,
        -1437415939871573574572839010971248046875,
        352163322858664726762725228294921875,
        -13089776536501963407329479984375,
        395013575867144519258203125,
        -688170786018119250,
        19874477919500,
        1,
    )
    assert poly.max_rounding_error == F(
        4837120988568591298018055806017791481350538818233,
        452312848583266388373324160190187140051835877600158453279131187530910662656,
    )


def test_integer_distance_needs_both_parts():
    def nearest(re, im, rad=0, bits=40):
        return cmlab._integer_distance(tuple(int(F(v) * 2**bits) for v in (re, im, rad)), bits)

    assert nearest(7, 0) == (7, 0)
    n, distance = nearest(-3, F(1, 2**30), F(1, 2**31))
    assert n == -3 and distance >= 3 * F(1, 2**31)
    n, distance = nearest(3, F(1, 2))  # integral real part, Im = 1/2
    assert n == 3 and distance >= F(1, 2)
    n, distance = nearest(F(11, 4), 0, F(1, 8))
    assert n == 3 and distance >= F(3, 8)
    assert isinstance(distance, F)


_EXACT_UNIT_POINTS = (
    (1, 0), (-1, 0), (0, 1), (0, -1), (F(3, 5), F(4, 5)), (F(-3, 5), F(4, 5)), (0, 0)
)
_UNIT_POINTS = tuple(mpc(float(re), float(im)) for re, im in _EXACT_UNIT_POINTS)


def _draw_ball(draw, bits, nonzero=False):
    """A ball at the scale 2^-bits whose midpoint parts run from far below an
    ulp (as integers) to 2^300 ulps and whose radius runs up to 2^300 ulps
    (below half the midpoint when nonzero), and an exact unit offset (|u| = 1,
    or 0)."""
    re = draw(st.integers(-2**300, 2**300))
    im = draw(st.integers(-2**300, 2**300))
    if nonzero:  # radius below |mid| / 2
        rad = max(abs(re), abs(im)) * draw(st.integers(0, 2**20 - 1)) >> 21
        assume(rad * rad * 4 < re * re + im * im)
    else:
        rad = draw(st.integers(0, 2**20)) << draw(st.integers(0, 280))
    unit = draw(st.sampled_from(_EXACT_UNIT_POINTS))
    return Ball(re, im, rad, bits), unit


@st.composite
def _operands(draw, second="ball", shift=0):
    """A scale, a ball at that scale plus shift, and a second operand: a
    ball whose radius is below half its midpoint, or a nonzero integer."""
    bits = draw(st.integers(min_value=0, max_value=200))
    first = _draw_ball(draw, bits + shift)
    if second == "ball":
        return bits, first, _draw_ball(draw, bits, nonzero=True)
    return bits, first, draw(st.integers(-2**70, 2**70).filter(bool))


def _point_of(ball, unit):
    re, im = _mid(ball)
    return re + _rad(ball) * unit[0], im + _rad(ball) * unit[1]


def _exactly(op, x, y):
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def _holds(ball, point):
    re, im = point
    mid_re, mid_im = _mid(ball)
    return (re - mid_re) ** 2 + (im - mid_im) ** 2 <= _rad(ball) ** 2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(op=st.sampled_from(["+", "-", "*", "/"]), operands=_operands())
def test_ball_operations_contain_the_result(op, operands):
    """For points x, y of two balls, x op y computed exactly in rationals lies
    in the ball x op y; a point sits on the boundary for a unit offset, at the
    centre for 0."""
    bits, (a, u), (b, v) = operands
    x, y = a[:3], b[:3]
    result = {
        "+": lambda: cmlab._ball_sum(x, y),
        "-": lambda: cmlab._ball_sum(x, y, -1),
        "*": lambda: cmlab._ball_mul(x, y, bits),
        "/": lambda: cmlab._ball_div(x, y, bits),
    }[op]()
    assert _holds(Ball(*result, bits), _exactly(op, _point_of(a, u), _point_of(b, v)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(op=st.sampled_from(["*", "/", "+"]), operands=_operands(second="int"))
def test_ball_integer_operations_contain_the_result(op, operands):
    """A ball times, over or plus an exact integer holds the exact result."""
    bits, (a, u), k = operands
    result = {
        "+": lambda: cmlab._ball_sum(a[:3], (k << bits, 0, 0)),
        "*": lambda: cmlab._ball_times(a[:3], k),
        "/": lambda: cmlab._ball_over(a[:3], k),
    }[op]()
    assert _holds(Ball(*result, bits), _exactly(op, _point_of(a, u), (F(k), F(0))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(shift=st.integers(0, 100), data=st.data())
def test_ball_at_scale_covers_the_finer_ball(shift, data):
    """Moving a ball to a coarser scale keeps every point of it."""
    bits, (a, u), _ = data.draw(_operands(second="int", shift=shift))
    coarse = Ball(*cmlab._rescale(a[:3], shift), bits)
    assert _holds(coarse, _point_of(a, u))


def test_ball_division_by_a_ball_around_zero():
    one = (1 << 30, 0, 0)
    with pytest.raises(ZeroDivisionError):
        cmlab._ball_div(one, (0, 0, 0), 30)
    with pytest.raises(ZeroDivisionError):
        cmlab._ball_div(one, (1 << 30, 0, 2 << 30), 30)  # the disk |z - 1| <= 2
    with pytest.raises(ZeroDivisionError):
        cmlab._ball_over(one, 0)


def _kronecker(d, p):
    """The Kronecker symbol (d / p) for a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    residue = pow(d % p, (p - 1) // 2, p)
    return 0 if residue == 0 else (1 if residue == 1 else -1)


def _prime_factors(n):
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + ([n] if n > 1 else [])


def _gross_zagier_product(d1, d2):
    """prod over x^2 < D, x = D (mod 2) of F((D - x^2) / 4), D = d1 d2, with
    F(m) = prod_{n n' = m} n^eps(n'), eps multiplicative and, at a prime l,
    eps(l) = (d1 / l) if l does not divide d1, else (d2 / l)."""

    def eps(n):
        sign = 1
        for l in _prime_factors(n):
            sign *= _kronecker(d1, l) if d1 % l else _kronecker(d2, l)
        return sign

    D, total = d1 * d2, F(1)
    for x in range(-math.isqrt(D), math.isqrt(D) + 1):
        if x * x < D and (D - x * x) % 4 == 0:
            m = (D - x * x) // 4
            for n in range(1, m + 1):
                if m % n == 0:
                    total *= F(n) ** eps(m // n)
    return total


@pytest.mark.parametrize("d1, d2", [(-7, -8), (-15, -23), (-20, -39), (-55, -68)])
def test_resultant_of_class_polynomials_is_gross_zagier(d1, d2):
    """Gross and Zagier, "On singular moduli" (1985): for coprime fundamental
    d1, d2 < -4, Res(H_d1, H_d2)^2 = +-prod F((d1 d2 - x^2) / 4), an exact
    integer identity on two certified builds."""
    h1, h2 = cmlab.class_polynomial(d1), cmlab.class_polynomial(d2)
    assert math.gcd(d1, d2) == 1
    res = resultant_coeffs(list(h1.coefficients), list(h2.coefficients))
    product = _gross_zagier_product(d1, d2)
    assert product.denominator == 1
    assert res * res == abs(product.numerator)
    assert res != 0


def test_class_polynomial_cache(tmp_path):
    path = tmp_path / "cache.txt"
    cache = cmlab.ClassPolyCache(str(path))
    poly = cmlab.class_polynomial(-20, cache=cache)
    text = path.read_text()
    assert text.startswith("-20 2 ")
    line = text.split()
    assert line[3:] == [str(c) for c in poly.coefficients]
    # a cache holding the same record gets no second copy
    cached = cmlab.class_polynomial(-20, cache=cache)
    assert cached.coefficients == poly.coefficients
    assert len(path.read_text().splitlines()) == 1
    # a bogus record never becomes the result; the certified build is appended
    # after it, so the last record for D is the true H_-20
    cache.store(cmlab.ClassPolynomial(-20, (1, 0, 1), 64, 0.0))
    assert cache.load()[-20] == (64, (1, 0, 1))
    assert cmlab.class_polynomial(-20, cache=cache).coefficients == (-681472000, -1264000, 1)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[-1].split()[3:] == ["-681472000", "-1264000", "1"]
    assert cache.load()[-20] == (poly.precision_used, (-681472000, -1264000, 1))


def test_class_polynomial_cache_concurrent_writers(tmp_path):
    """Four cache objects appending to one file from four threads keep every
    record; a read-then-rename store loses records to a concurrent writer."""
    path = str(tmp_path / "cache.txt")

    def writer(first):
        cache = cmlab.ClassPolyCache(path)
        for d in range(first, 101, 4):
            cache.store(cmlab.ClassPolynomial(-d, (d, 1), 64, 0.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(1, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    records = cmlab.ClassPolyCache(path).load()
    assert records == {-d: (64, (d, 1)) for d in range(1, 101)}


def test_class_polynomial_cache_rejects_torn_lines(tmp_path):
    path = tmp_path / "cache.txt"
    cache = cmlab.ClassPolyCache(str(path))
    cache.store(cmlab.ClassPolynomial(-20, (-681472000, -1264000, 1), 906, 0.0))
    with open(path, "a", encoding="ascii") as handle:
        handle.write("-40 2 906 12")  # a writer stopped mid-record
    assert cache.load() == {-20: (906, (-681472000, -1264000, 1))}
    with open(path, "a", encoding="ascii") as handle:
        handle.write(" ")
    # the next record starts a new line, so only the torn line is dropped
    cache.store(cmlab.ClassPolynomial(-15, (-121287375, 191025, 1), 906, 0.0))
    assert cache.load() == {
        -20: (906, (-681472000, -1264000, 1)),
        -15: (906, (-121287375, 191025, 1)),
    }
    with open(path, "a", encoding="ascii") as handle:
        handle.write("-40 2 -")
    assert set(cache.load()) == {-20, -15}

def test_congruence_check_matches_quadratic_field_oracle():
    """Independent oracle for h = 2: write the roots as a +- b sqrt(5) from
    the integer coefficients and compute the valuation directly in Z[sqrt 5]."""
    poly = cmlab.class_polynomial(-20)
    e0, e1 = poly.coefficients[0], -poly.coefficients[1]  # X^2 - e1 X + e0
    disc = e1 * e1 - 4 * e0
    assert disc % 5 == 0
    s = math.isqrt(disc // 5)
    assert 5 * s * s == disc and e1 % 2 == 0 and s % 2 == 0
    a, b = e1 // 2, s // 2  # roots a +- b sqrt(5)
    # (a + b sqrt5)^2 - 125 = (a^2 + 5 b^2 - 125) + 2ab sqrt5
    rational = a * a + 5 * b * b - 125
    irrational = 2 * a * b
    oracle = min(val_rat(rational, 5), val_rat(irrational, 5) + F(1, 2))
    result = cmlab.congruence_check(poly, cmlab.standard_spec(5, "-"))
    assert result.min_root_valuation == oracle == F(9, 2)
    assert result.passed


def test_congruence_check_degree_one_oracle():
    poly = cmlab.class_polynomial(-28)
    j0 = poly.coefficients[0] * -1 - 1728  # the single root minus the center
    oracle = val_rat(j0**4 - 7**4, 7)
    result = cmlab.congruence_check(poly, cmlab.standard_spec(7, "-"))
    assert result.min_root_valuation == oracle == 5
    assert result.passed


def test_congruence_case2_passes():
    poly = cmlab.class_polynomial(-40)
    result = cmlab.congruence_check(poly, cmlab.standard_spec(5, "+"))
    assert result.passed and result.min_root_valuation > 3
    # and the wrong sign fails
    wrong = cmlab.congruence_check(poly, cmlab.standard_spec(5, "-"))
    assert not wrong.passed


def test_characteristic_polynomial_is_the_resultant():
    """Dual route: the trace-based characteristic polynomial equals
    Res_j(H(j), w0 - g(j)) computed via the Sylvester matrix at deg H + 1
    integer points w0, hence as polynomials in w."""
    H = list(cmlab.class_polynomial(-20).coefficients)
    spec = cmlab.standard_spec(5, "-")
    shifted = [-spec.prime_power, 0, 1]  # j^2 - 125
    via_traces = cmlab.characteristic_polynomial(shifted, H)
    samples = [(w0, resultant_coeffs(H, [w0 - shifted[0], 0, -1])) for w0 in range(len(H))]
    assert list(via_traces) == interpolate_integer_polynomial(samples)


@pytest.mark.parametrize("sign", ["", "+-", "x"])
def test_standard_spec_takes_one_sign(sign):
    with pytest.raises(ValueError, match="sign must be"):
        cmlab.standard_spec(5, sign)


def test_congruence_case_classification():
    assert cmlab.congruence_case(-20, 5) == 1
    assert cmlab.congruence_case(-40, 5) == 2
    assert cmlab.congruence_case(-28, 7) == 1
    assert cmlab.congruence_case(-84, 7) == 2
    assert cmlab.congruence_case(-52, 13) == 1
    assert cmlab.congruence_case(-104, 13) == 2
    with pytest.raises(ValueError):
        cmlab.congruence_case(-50, 5)  # 25 | 50
    with pytest.raises(ValueError):
        cmlab.congruence_case(-21, 5)  # 5 does not divide


def test_h20_roots_lie_on_the_al_circle():
    """Every root of H(-20) has v5(j) = 3/2: the table rows land on the
    circle the four CM disks live in."""
    poly = cmlab.class_polynomial(-20)
    from stablelab.exactmath.polygon import newton_polygon

    polygon = newton_polygon([val_rat(c, 5) for c in poly.coefficients])
    assert polygon.root_valuations() == ((F(3, 2), 2),)


def test_table_crosscheck_row():
    for row in cmlab.table_rows():
        assert cmlab.table_crosscheck(row) is None, row.label


def _shifted(tau):  # tau + 1
    return cmlab.Tau(tau.re_num + tau.den, tau.im_num, tau.n, tau.den)


def _inverted(tau):  # -1/tau = (-den re + den im sqrt(-n)) / (re^2 + im^2 n)
    r, m, n, d = tau.re_num, tau.im_num, tau.n, tau.den
    return cmlab.Tau(-d * r, d * m, n, r * r + m * m * n)


def test_table_crosscheck_accepts_equivalent_taus():
    for row in cmlab.table_rows():
        for move in (_shifted, _inverted, lambda t: _inverted(_shifted(_shifted(t)))):
            moved = row._replace(taus=tuple(move(t) for t in row.taus))
            assert moved.taus != row.taus
            cmlab.table_crosscheck(moved)


def test_table_crosscheck_rejects_wrong_rows():
    rows = {row.discriminant: row for row in cmlab.table_rows()}
    row = rows[-260]
    repeated = (row.taus[0], _shifted(row.taus[0])) + row.taus[2:]  # one class twice
    with pytest.raises(CertificateError, match="reduce to one class \\(1, 0, 65\\)$"):
        cmlab.table_crosscheck(row._replace(taus=repeated))
    foreign = (cmlab.Tau(0, 1, 10, 1),) + rows[-20].taus[1:]  # sqrt(-10) has D = -40
    with pytest.raises(CertificateError,
                       match="form \\(1, 0, 10\\) of discriminant -40, not -20$"):
        cmlab.table_crosscheck(rows[-20]._replace(taus=foreign))
    with pytest.raises(CertificateError, match="^row has 7 tau values but h\\(-260\\) = 8$"):
        cmlab.table_crosscheck(row._replace(taus=row.taus[:-1]))
    extra = row.taus + (_inverted(row.taus[0]),)  # all h classes, one of them twice
    with pytest.raises(CertificateError, match="^row has 9 tau values but h\\(-260\\) = 8$"):
        cmlab.table_crosscheck(row._replace(taus=extra))


def test_tau_outside_upper_half_plane_rejected():
    row = cmlab.table_rows()[0]
    for bad in ((0, 0, 5, 1), (0, -1, 5, 1), (0, 1, 5, 0), (1, 1, 5, -2)):
        with pytest.raises(ValueError):
            cmlab.Tau(*bad).form()
        with pytest.raises(ValueError):
            cmlab.table_crosscheck(row._replace(taus=(cmlab.Tau(*bad),) + row.taus[1:]))
    with pytest.raises(ValueError):
        cmlab.QuadForm(-1, 0, -5)  # negative definite


def test_table_crosscheck_needs_no_j_values(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the row check must not evaluate j")

    for name in ("j_tau", "polynomial_from_taus", "class_polynomial"):
        monkeypatch.setattr(cmlab, name, forbidden)
    for row in cmlab.table_rows():
        cmlab.table_crosscheck(row)


_SL2_MOVES = {
    "S": lambda f: cmlab.QuadForm(f.c, -f.b, f.a),  # tau -> -1/tau
    "T": lambda f: cmlab.QuadForm(f.a, f.b - 2 * f.a, f.a - f.b + f.c),  # tau -> tau + 1
    "T^-1": lambda f: cmlab.QuadForm(f.a, f.b + 2 * f.a, f.a + f.b + f.c),
}


@settings(derandomize=True, max_examples=200)
@given(
    disc=st.sampled_from([-3, -4, -15, -20, -23, -56, -71, -84, -180, -260, -299, -420]),
    index=st.integers(min_value=0),
    word=st.lists(st.sampled_from(sorted(_SL2_MOVES)), max_size=25),
)
def test_reduction_undoes_sl2_words(disc, index, word):
    forms = cmlab.reduced_forms(disc)
    form = forms[index % len(forms)]
    moved = form
    for letter in word:
        moved = _SL2_MOVES[letter](moved)
    assert moved.discriminant() == disc
    assert moved.reduced() == form
    assert moved.tau().form() == moved  # tau of a primitive form maps back to it


def test_table_rows_shape():
    rows = cmlab.table_rows()
    assert len(rows) == 12
    assert sum(1 for row in rows if row.case == 1) == 6
    assert len(rows[-1].taus) == 8  # the h = 8 row
    for row in rows:
        assert cmlab.congruence_case(row.discriminant, 5) == row.case

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablelab import CertificateError, curve125, modmaps, sslab
from stablelab.exactmath import (
    INF,
    MinValuation,
    SymbolicPolynomial,
    Affine,
    ValuedSymbol,
    affine,
    characteristic_polynomial,
    dominant_piece,
    field_valuation,
    is_finite,
    min_valuation,
    normal_form,
    param_valuations,
    pieces_in,
    poly_to_coeffs,
    quotient_on_cell,
    sym,
    symbol_valuations,
    valuation_levels,
)
from stablelab.curve125 import R_SYMBOL, SQRT15_SYMBOL
from stablelab.exactmath import val_rat


def test_is_prime_matches_a_sieve_and_is_shared():
    from stablelab import cli, ledger, quatlab
    from stablelab.exactmath import is_prime

    composite = {m * k for m in range(2, 45) for k in range(m, 2000 // m + 1)}
    assert [n for n in range(-3, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if n not in composite
    ]
    assert ledger.is_prime is is_prime and cli.is_prime is is_prime
    assert quatlab.is_prime is is_prime


def test_val_rat_examples():
    assert val_rat(50, 5) == 2
    assert val_rat(F(1, 25), 5) == -2
    assert val_rat(0, 5) == INF
    assert val_rat(-7, 7) == 1
    with pytest.raises(ValueError):
        val_rat(10, 6)


def test_val_rat_randomized_properties():
    rng = random.Random(12345)
    for _ in range(1000):
        a = F(rng.randint(-500, 500), rng.randint(1, 500))
        b = F(rng.randint(-500, 500), rng.randint(1, 500))
        va, vb = val_rat(a, 5), val_rat(b, 5)
        if a and b:
            assert val_rat(a * b, 5) == va + vb
        vsum = val_rat(a + b, 5)
        assert vsum >= min(va, vb)
        if va != vb:
            assert vsum == min(va, vb)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(0, 12), st.integers(0, 12),
       st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
def test_val_rat_matches_factorisation(p, k, j, m, n):
    """val_rat(p^k m / (p^j n)) = k - j for m and n prime to p."""
    m, n = (m * p + 1 if m % p == 0 else m), (n * p + 1 if n % p == 0 else n)
    assert val_rat(F(p**k * m, p**j * n), p) == k - j


def test_infinity_absorbs_and_is_maximal():
    assert INF + F(3, 2) == INF
    assert F(10**9) < INF
    assert min(INF, F(-5)) == -5
    assert is_finite(F(0)) and not is_finite(INF)


def test_min_valuation_examples():
    x0, y, u = sym("x0"), sym("y"), sym("u")
    mv = min_valuation(x0**5 + 25 * x0 - 15 * y**2, {"x0": F(1, 2), "y": F(3, 4)}, 5)
    assert mv.value == F(5, 2) and len(mv.witnesses) == 3 and not mv.unique

    mv = min_valuation(5 + u, {"u": F(0)}, 5)
    assert mv.value == 0 and mv.unique and mv.witnesses == ((("u", 1),),)

    f = u**5 + 5 * u**4 + 15 * u**3 + 25 * u**2 + 25 * u
    mv = min_valuation(f, {"u": F(3, 10)}, 5)
    assert mv.value == F(3, 2) and mv.unique and mv.witnesses == ((("u", 5),),)


def test_min_valuation_unassigned_symbol():
    with pytest.raises(KeyError):
        min_valuation(sym("a") + 1, {}, 5)
    with pytest.raises(KeyError):
        min_valuation(sym("a") * sym("b") + 1, {"a": F(1)}, 5)


def _min_valuation_by_monomials(f, assignment, p):
    """min_valuation's oracle: each monomial valued on its own, without
    param_valuations."""
    best, witnesses = INF, []
    for mono, coeff in f.items():
        v = val_rat(coeff, p)
        if is_finite(v):
            for name, e in mono:
                if name not in assignment:
                    raise KeyError(name)
                v += e * F(assignment[name])
        if v < best:
            best, witnesses = v, [mono]
        elif v == best and is_finite(v):
            witnesses.append(mono)
    return MinValuation(best, tuple(sorted(witnesses)))


def _oracle_cases():
    g_plus = curve125.build_shifted_model()
    assignment = {**symbol_valuations([R_SYMBOL], 5), **curve125.EQ3_ASSIGNMENT}
    yield g_plus, assignment
    for i in range(6):
        yield g_plus.coefficient("x0", i), assignment
    for rmap in modmaps.builtin_maps().values():
        for radius in (F(3, 2), F(5, 2), F(3, 10)):
            for poly in (rmap.numerator, rmap.denominator):
                yield poly, {rmap.source_coord: radius}
    psi5 = sslab.division_polynomial_5()
    for i in range(psi5.degree("x") + 1):
        yield psi5.coefficient("x", i), {"t": F(1, 100)}


def test_min_valuation_matches_the_per_monomial_loop():
    cases = list(_oracle_cases())
    assert len(cases) == 1 + 6 + 36 + 13
    assert any(not mv.unique for mv in (min_valuation(f, a, 5) for f, a in cases))
    for f, assignment in cases:
        assert min_valuation(f, assignment, 5) == _min_valuation_by_monomials(f, assignment, 5)


def test_valuation_levels_partition_the_monomials_lowest_first():
    """The levels ascend, are disjoint and cover every monomial, each
    monomial sits on the level of its own valuation, and the first level is
    `min_valuation`."""
    cases = list(_oracle_cases())
    assert any(f.is_zero() for f, _ in cases)
    for f, assignment in cases:
        levels = valuation_levels(f, assignment, 5)
        values = [v for v, _ in levels]
        assert values == sorted(set(values))
        monomials = [mono for _, monos in levels for mono in monos]
        assert sorted(monomials) == sorted(mono for mono, _ in f.items())
        for v, monos in levels:
            for mono in monos:
                alone = SymbolicPolynomial({mono: f.terms[mono]})
                assert _min_valuation_by_monomials(alone, assignment, 5).value == v
        value, witnesses = levels[0] if levels else (INF, ())  # f = 0 has no level
        first = MinValuation(value, witnesses)
        assert first == min_valuation(f, assignment, 5) == _min_valuation_by_monomials(
            f, assignment, 5
        )


def test_symbol_valuations_certifies_every_symbol_of_the_certificates():
    alpha, beta = sym("alpha"), sym("beta")
    symbols = [
        R_SYMBOL,
        SQRT15_SYMBOL,
        ValuedSymbol("alpha", F(1, 2), (2, SymbolicPolynomial.constant(5))),
        ValuedSymbol("beta", F(3, 4), (2, 5 * alpha)),  # valued with alpha before it
    ]
    assert symbol_valuations(symbols, 5) == {
        "r": F(2, 5), "sqrt15": F(1, 2), "alpha": F(1, 2), "beta": F(3, 4)
    }
    assert symbol_valuations([], 5) == {}


def test_symbol_valuations_rejects_a_wrong_r():
    """r^5 -> 25 - 25r: at v(r) = 1/5, 5 v(r) = 1 but the rule has valuation 2."""
    wrong = ValuedSymbol("r", F(1, 5), R_SYMBOL.rewrite)
    with pytest.raises(CertificateError, match=r"^v\(r\) = 1/5 does not fit"):
        symbol_valuations([SQRT15_SYMBOL, wrong], 5)


def test_symbol_valuations_rejects_a_wrong_beta_of_eq4():
    """beta^2 -> 5 alpha forces v(beta) = (1 + 1/2)/2 = 3/4, not 1/2."""
    alpha = sym("alpha")
    symbols = [
        ValuedSymbol("alpha", F(1, 2), (2, SymbolicPolynomial.constant(5))),
        ValuedSymbol("beta", F(1, 2), (2, 5 * alpha)),
    ]
    with pytest.raises(CertificateError, match=r"^v\(beta\) = 1/2"):
        symbol_valuations(symbols, 5)


@pytest.mark.parametrize("valuation", [F(0), F(1, 2), F(-1)])
def test_symbol_valuations_rejects_a_tied_rule(valuation):
    """The golden ratio x^2 -> x + 1 is a unit: at v(x) = 0 its rule's two
    monomials tie, and at any other v(x) the rule's minimum is not 2 v(x)."""
    golden = ValuedSymbol("x", valuation, (2, sym("x") + 1))
    with pytest.raises(CertificateError, match=r"^v\(x\)"):
        symbol_valuations([golden], 5)


def test_field_valuation_examples():
    r = sym("r")
    assert field_valuation(r, R_SYMBOL, 5) == F(2, 5)
    assert field_valuation(SymbolicPolynomial.constant(5), R_SYMBOL, 5) == 1
    assert field_valuation(SymbolicPolynomial.zero(), R_SYMBOL, 5) == INF
    # 5^5 - 5^3 r^5 normal-forms to 3125 r, valuation 5 + 2/5
    numerator = normal_form(SymbolicPolynomial.constant(5**5) - 5**3 * r**5, [R_SYMBOL])
    assert numerator == 3125 * r
    assert field_valuation(numerator, R_SYMBOL, 5) == F(27, 5)
    assert field_valuation(5**5 - 5**3 * r**5, R_SYMBOL, 5) == F(27, 5)  # normal-formed inside
    assert field_valuation(r**5 + 25 * r - 25, R_SYMBOL, 5) == INF
    assert field_valuation(r / 5, R_SYMBOL, 5) == F(-3, 5)
    assert field_valuation(SymbolicPolynomial.constant(F(1, 25)), R_SYMBOL, 5) == -2
    assert field_valuation(r**2 / 10 + 1, R_SYMBOL, 5) == F(-1, 5)  # v(r^2/10) < v(1)


def test_field_valuation_rejects_unramified():
    golden = ValuedSymbol("x", F(0), (2, sym("x") + 1))  # golden-ratio field: a tied rule
    with pytest.raises(CertificateError):
        field_valuation(sym("x"), golden, 5)


def test_field_valuation_rejects_a_tie():
    """s^2 -> 25 at v(s) = 1 certifies, but 5 + s is 10 or 0 as s = 5 or -5:
    its two monomials tie, and no valuation is reported."""
    s = ValuedSymbol("s", F(1), (2, SymbolicPolynomial.constant(25)))
    assert field_valuation(sym("s") * 5, s, 5) == 2
    with pytest.raises(ValueError, match="tie"):
        field_valuation(5 + sym("s"), s, 5)


def _norm_valuation(a, p=5):
    """field_valuation's oracle over Q(r): v(a) = v(N(d a)) / 5 - v(d), with d
    the common denominator of a's coefficients and the norm read off the
    characteristic polynomial of d a, the constant term up to sign."""
    coeffs = poly_to_coeffs(normal_form(a, [R_SYMBOL]), "r")
    d = math.lcm(*(F(c).denominator for c in coeffs))
    modulus = poly_to_coeffs(sym("r") ** 5 - R_SYMBOL.rewrite[1], "r")
    signed_norm = characteristic_polynomial([c * d for c in coeffs], modulus)[0]
    return val_rat(signed_norm, p) / 5 - val_rat(d, p)


def test_unique_minimum_matches_field_valuation():
    """The monomial minimum of an element of Q(r) is its valuation by the
    norm, on randomized elements of degree up to 8 in r with rational
    coefficients, normal-formed before they are valued."""
    rng = random.Random(99)
    r = sym("r")
    produced = 0
    while produced < 300:
        poly = SymbolicPolynomial.zero()
        for e in range(9):
            if rng.random() < 0.5:
                coeff = F(rng.randint(-4, 4) * 5 ** rng.randint(0, 3), rng.choice([1, 2, 5, 25]))
                poly = poly + coeff * r**e
        if normal_form(poly, [R_SYMBOL]).is_zero():
            continue
        assert field_valuation(poly, R_SYMBOL, 5) == _norm_valuation(poly)
        produced += 1


def test_param_valuations_shift():
    s = sym("s")
    pieces = param_valuations(25 * s**2, {}, {"s": 1}, 5, shift=affine(0, -10))
    assert len(pieces) == 1
    fn, mono = pieces[0]
    assert fn == affine(2, -8) and mono == (("s", 2),)
    assert fn(F(1, 4)) == 0


def test_dominant_piece_decides_the_open_interval_at_its_endpoints():
    zero, rising = affine(0), affine(-1, 5)  # rising ties zero at lambda = 1/5
    assert dominant_piece([rising, zero], F(1, 5), F(1, 4)) == zero
    assert dominant_piece([zero], 0, 1) == zero
    # a piece that ties zero at 1/5 and falls below it inside dominates instead
    assert dominant_piece([zero, affine(1, -5)], F(1, 5), F(1, 4)) == affine(1, -5)
    # crossing inside: below on one part, above on the other
    assert dominant_piece([zero, affine(-1, 2)], 0, 1) is None
    # equal on the whole interval, or listed twice: never dominant
    assert dominant_piece([zero, zero, rising], F(1, 5), F(1, 4)) is None
    assert dominant_piece([affine(0, 6), affine(0, 6)], 0, F(5, 2)) is None
    # lo == hi is the single circle: strictly below every other piece there
    assert dominant_piece([zero], 1, 1) == zero
    assert dominant_piece([rising, zero], F(1, 5), F(1, 5)) is None
    assert dominant_piece([rising, zero], F(1, 4), F(1, 4)) == zero
    assert dominant_piece([zero, zero, rising], 1, 1) is None
    with pytest.raises(ValueError):
        dominant_piece([zero], 1, 0)
    with pytest.raises(ValueError):
        dominant_piece([], 0, 1)
    with pytest.raises(ValueError):
        dominant_piece([], 1, 1)


def test_quotient_on_cell_is_the_difference_of_dominant_pieces():
    """v(25t / (1 + 5t^2)) is 2 + lambda while 1 undercuts 5t^2, that is
    on cells inside -1/2 < lambda; a cell reaching below -1/2 has no dominant
    denominator piece, and a numerator 1 + t crossing at lambda = 0 has none."""
    t = sym("t")
    num, den = 25 * t, 1 + 5 * t**2
    assert quotient_on_cell(num, den, "t", F(-1, 2), 3, 5) == affine(2, 1)
    assert quotient_on_cell(num, den, "t", -1, 3, 5) is None
    assert quotient_on_cell(1 + t, den, "t", -1, 1, 5) is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=5))
def test_dominant_piece_matches_sampling_between_crossings(raw):
    """On (0, 1) a piece is dominant exactly when it is strictly below every
    other piece at each midpoint between consecutive crossings in (0, 1):
    between crossings the order of the pieces does not change."""
    pieces = [Affine(F(a), F(b)) for a, b in raw]
    cuts = {F(0), F(1)}
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            rho = (a - b).root()
            if rho is not None and 0 < rho < 1:
                cuts.add(rho)
    cuts = sorted(cuts)
    samples = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    below = [
        i for i, fn in enumerate(pieces)
        if all(fn(lam) < other(lam) for lam in samples
               for k, other in enumerate(pieces) if k != i)
    ]
    got = dominant_piece(pieces, 0, 1)
    assert (got is None) == (not below)
    if below:
        assert got == pieces[below[0]]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.booleans(),
)
def test_dominant_piece_at_a_circle_is_the_single_lowest_piece(raw, lam, duplicate):
    """At lo == hi a piece dominates exactly when it alone attains the least
    value at lambda; a piece listed twice attains it twice."""
    pieces = [Affine(F(a), F(b)) for a, b in raw]
    if duplicate:
        pieces.append(pieces[0])
    least = min(fn(lam) for fn in pieces)
    lowest = [fn for fn in pieces if fn(lam) == least]
    got = dominant_piece(pieces, lam, lam)
    assert (got is not None) == (len(lowest) == 1)
    if len(lowest) == 1:
        assert got == lowest[0]


def test_pieces_in_values_each_monomial_in_one_variable():
    t = sym("t")
    assert sorted(pieces_in(25 * t**3 - t + 7, "t", 5)) == [affine(0), affine(0, 1), affine(2, 3)]
    assert pieces_in(SymbolicPolynomial.zero(), "t", 5) == []
    with pytest.raises(KeyError):
        pieces_in(t * sym("u"), "t", 5)

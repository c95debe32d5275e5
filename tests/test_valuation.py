import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablelab.exactmath import (
    INF,
    SymbolicPolynomial,
    affine,
    field_valuation,
    is_finite,
    min_valuation,
    normal_form,
    param_valuations,
    sym,
)
from stablelab.curve125 import R_MINPOLY, R_SYMBOL
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


def test_field_valuation_examples():
    r = sym("r")
    assert field_valuation(r, "r", R_MINPOLY, 5) == F(2, 5)
    assert field_valuation(SymbolicPolynomial.constant(5), "r", R_MINPOLY, 5) == 1
    assert field_valuation(SymbolicPolynomial.zero(), "r", R_MINPOLY, 5) == INF
    # 5^5 - 5^3 r^5 normal-forms to 3125 r, valuation 5 + 2/5
    numerator = normal_form(SymbolicPolynomial.constant(5**5) - 5**3 * r**5, [R_SYMBOL])
    assert numerator == 3125 * r
    assert field_valuation(numerator, "r", R_MINPOLY, 5) == F(27, 5)
    # rational elements: the common denominator is cleared, then subtracted
    assert field_valuation(r / 5, "r", R_MINPOLY, 5) == F(-3, 5)
    assert field_valuation(SymbolicPolynomial.constant(F(1, 25)), "r", R_MINPOLY, 5) == -2
    assert field_valuation(r**2 / 10 + 1, "r", R_MINPOLY, 5) == F(-1, 5)  # v(r^2/10) < v(1)


def test_field_valuation_rejects_unramified():
    xx = sym("x")
    with pytest.raises(ValueError):
        field_valuation(xx, "x", xx**2 - xx - 1, 5)  # golden-ratio field: slope 0


def test_unique_minimum_matches_field_valuation():
    """When the generic minimum is unique it is the exact valuation of the
    evaluated element of Q(r); checked on 10 randomized instances."""
    rng = random.Random(99)
    r = sym("r")
    produced = 0
    while produced < 10:
        poly = SymbolicPolynomial.zero()
        for e in range(5):
            if rng.random() < 0.7:
                coeff = rng.randint(1, 4) * 5 ** rng.randint(0, 3)
                poly = poly + coeff * r**e
        if poly.is_zero():
            continue
        mv = min_valuation(poly, {"r": F(2, 5)}, 5)
        if not mv.unique:
            continue
        assert field_valuation(poly, "r", R_MINPOLY, 5) == mv.value
        produced += 1


def test_param_valuations_shift():
    s = sym("s")
    pieces = param_valuations(25 * s**2, {}, {"s": 1}, 5, shift=affine(0, -10))
    assert len(pieces) == 1
    fn, mono = pieces[0]
    assert fn == affine(2, -8) and mono == (("s", 2),)
    assert fn(F(1, 4)) == 0

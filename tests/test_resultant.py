import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablelab import curve125
from stablelab.exactmath import (
    characteristic_polynomial,
    coeffs_to_poly,
    difference_root_resultant,
    interpolate_integer_polynomial,
    resultant,
    resultant_coeffs,
    sym,
    univariate_mul,
)

x, a, b = sym("x"), sym("a"), sym("b")


def test_resultant_examples():
    assert resultant(x**2 - 1, x - 2, "x") == 3
    assert resultant(x - a, x - b, "x") == a - b
    with pytest.raises(ValueError):
        resultant(sym("x") * 0 + 1, sym("x") * 0 + 2, "x")


def test_resultant_multiplicativity_randomized():
    rng = random.Random(2024)

    def random_poly():
        degree = rng.randint(1, 3)
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 5)]
        return coeffs_to_poly(coeffs, "x")

    for _ in range(25):
        f, g, h = random_poly(), random_poly(), random_poly()
        lhs = resultant(f * g, h, "x")
        rhs = resultant(f, h, "x") * resultant(g, h, "x")
        assert lhs == rhs


def test_resultant_swap_sign():
    rng = random.Random(55)
    for _ in range(25):
        df, dg = rng.randint(1, 3), rng.randint(1, 3)
        f = coeffs_to_poly([rng.randint(-5, 5) for _ in range(df)] + [rng.randint(1, 5)], "x")
        g = coeffs_to_poly([rng.randint(-5, 5) for _ in range(dg)] + [rng.randint(1, 5)], "x")
        sign = (-1) ** (df * dg)
        assert resultant(f, g, "x") == sign * resultant(g, f, "x")


def test_resultant_root_product_oracle():
    # Res(f, g) = lc(f)^deg g * prod g(root): integer roots make this explicit
    f = coeffs_to_poly([6, -5, 1], "x")  # (x-2)(x-3)
    g = coeffs_to_poly([-1, 0, 1], "x")  # x^2 - 1
    assert resultant_coeffs([6, -5, 1], [-1, 0, 1]) == (2 * 2 - 1) * (3 * 3 - 1)
    assert resultant(f, g, "x") == 24


def test_interpolation_roundtrip():
    rng = random.Random(8)
    coeffs = [rng.randint(-20, 20) for _ in range(7)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-20, 20)

    def evaluate(z):
        total = 0
        for c in reversed(coeffs):
            total = total * z + c
        return total

    points = [(z, evaluate(z)) for z in range(-3, 4)]
    assert interpolate_integer_polynomial(points) == coeffs


def test_difference_root_resultant_small():
    # f = x^2 - 1: ordered differences {2, -2}, plus z^2 factor
    assert difference_root_resultant([-1, 0, 1]) == [0, 0, -4, 0, 1]
    # f = (x-1)(x-2)(x-4): differences {±1, ±2, ±3}
    f = [-8, 14, -7, 1]
    d = difference_root_resultant(f)
    assert d[:3] == [0, 0, 0]
    quotient = d[3:]
    roots = [1, -1, 2, -2, 3, -3]
    for root in roots:
        value = 0
        for c in reversed(quotient):
            value = value * root + c
        assert value == 0


def difference_resultant_by_interpolation(f):
    """Oracle for D(z) = Res_y(f(y), f(y+z)): Sylvester/Bareiss at the
    deg(f)**2 + 1 integer shifts z0, then Newton interpolation."""
    n = len(f) - 1
    samples = []
    for z0 in range(-(n * n // 2), n * n - n * n // 2 + 1):
        shifted = [
            sum(math.comb(i, k) * c * z0 ** (i - k) for i, c in enumerate(f) if i >= k)
            for k in range(n + 1)
        ]  # f(y + z0)
        samples.append((z0, int(resultant_coeffs(f, shifted))))
    return interpolate_integer_polynomial(samples)


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
leading = st.integers(-6, 6).filter(bool)


@st.composite
def integer_polynomials(draw):
    """Integer f of degree 1 to 5; half of them are g * h**2, with a repeated factor."""
    if draw(st.booleans()):
        h = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=1)) + [draw(leading)]
        g = draw(st.lists(st.integers(-5, 5), max_size=3)) + [draw(leading)]
        return univariate_mul(g, univariate_mul(h, h))
    return draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5)) + [draw(leading)]


@PROPERTY
@given(integer_polynomials())
@example([1, 2, 1])  # (y + 1)^2
@example([1, 0, 3])  # non-unit leading coefficient
@example([4, -6])
def test_difference_root_resultant_matches_bareiss_interpolation(f):
    assert difference_root_resultant(f) == difference_resultant_by_interpolation(f)


def test_difference_root_resultant_on_ramification_polynomials():
    ram = curve125.ramification_polynomials()
    for f in (ram.p_ram_y, ram.p_ram_x):
        assert difference_root_resultant(f) == difference_resultant_by_interpolation(list(f))


@PROPERTY
@given(st.lists(st.integers(-30, 30), max_size=5),
       st.lists(st.integers(-30, 30), min_size=1, max_size=4), leading)
def test_characteristic_polynomial_matches_sylvester(H_low, g_low, g_lead):
    """Res_j(H(j), w0 - g(j)) by Sylvester/Bareiss equals the power-sum
    characteristic polynomial at deg H + 1 values w0, hence as polynomials."""
    H, g = H_low + [1], g_low + [g_lead]
    char = characteristic_polynomial(g, H)
    for w0 in range(len(H)):
        value = sum(c * w0**k for k, c in enumerate(char))
        assert resultant_coeffs(H, [w0 - g[0]] + [-c for c in g[1:]]) == value

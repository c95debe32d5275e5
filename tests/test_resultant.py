import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablelab import curve125
from stablelab.exactmath.kernel import univariate_mul
from stablelab.exactmath.resultant import (
    bareiss_determinant,
    characteristic_polynomial,
    difference_root_resultant,
    interpolate_integer_polynomial,
    resultant_coeffs,
)


def test_resultant_examples():
    assert resultant_coeffs([-1, 0, 1], [-2, 1]) == 3  # Res(x^2 - 1, x - 2)
    with pytest.raises(ValueError):
        resultant_coeffs([1], [2])


def random_integer_poly(rng):
    degree = rng.randint(1, 3)
    return [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 5)]


def test_resultant_multiplicativity_randomized():
    rng = random.Random(2024)
    for _ in range(25):
        f, g, h = (random_integer_poly(rng) for _ in range(3))
        lhs = resultant_coeffs(univariate_mul(f, g), h)
        assert lhs == resultant_coeffs(f, h) * resultant_coeffs(g, h)


def test_resultant_swap_sign():
    rng = random.Random(55)
    for _ in range(25):
        f, g = random_integer_poly(rng), random_integer_poly(rng)
        sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
        assert resultant_coeffs(f, g) == sign * resultant_coeffs(g, f)


def test_resultant_root_product_oracle():
    # Res(f, g) = lc(f)^deg g * prod g(root): integer roots make this explicit
    assert resultant_coeffs([6, -5, 1], [-1, 0, 1]) == (2 * 2 - 1) * (3 * 3 - 1) == 24
    # (2x - 1)(x - 3): lc 2, roots 1/2 and 3, g = x + 1
    assert resultant_coeffs([3, -7, 2], [1, 1]) == 2 * (F(1, 2) + 1) * (3 + 1) == 12


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
@given(st.lists(st.integers(-30, 30), max_size=5), leading,
       st.lists(st.integers(-30, 30), min_size=1, max_size=4), leading,
       st.sampled_from([1, 1, 2, 5, 20]))
@example([-20, 0], 1, [0, 0], 1, 20)  # y^2 - 20 and g = y^2/20: (w - 1)^2
@example([1, 0], 3, [0], 1, 1)  # 3y^2 + 1 and g = y: 3w^2 + 1
def test_characteristic_polynomial_matches_sylvester(H_low, H_lead, g_low, g_lead, den):
    """Res_j(H(j), w0 - g(j)) by Sylvester/Bareiss, interpolated through
    deg H + 1 values w0, equals the power-sum characteristic polynomial; H has
    any leading coefficient and g = (integer polynomial) / den.  When the
    resultant is not integral, the power-sum route refuses it."""
    H, g = H_low + [H_lead], [F(c, den) for c in g_low + [g_lead]]
    samples = [
        (w0, resultant_coeffs(H, [w0 - g[0]] + [-c for c in g[1:]]))
        for w0 in range(len(H))
    ]
    try:
        expected = interpolate_integer_polynomial(samples)
    except ValueError:
        with pytest.raises(ArithmeticError):
            characteristic_polynomial(g, H)
        return
    assert list(characteristic_polynomial(g, H)) == expected


def fraction_determinant(matrix):
    """Gaussian elimination with Fraction pivots, independent of Bareiss."""
    m = [[F(c) for c in row] for row in matrix]
    det = F(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


@PROPERTY
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])  # a pivot swap
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])  # singular after one step
def test_bareiss_matches_fraction_elimination(matrix):
    det = bareiss_determinant(matrix)
    assert isinstance(det, int) and det == fraction_determinant(matrix)

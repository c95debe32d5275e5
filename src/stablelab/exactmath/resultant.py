"""Resultants from power sums of roots, with a Sylvester/Bareiss test oracle.

Every elimination on the verify path is a special resultant computed from
power sums of roots and Newton's identities (Bostan, Flajolet, Salvy and
Schost, "Fast computation of special resultants", J. Symb. Comp. 41, 2006):
the characteristic polynomial Res_j(H(j), w - g(j)) and the
pairwise-difference polynomial Res_y(f(y), f(y + z)).

Sylvester matrices, fraction-free (Bareiss) elimination over int/Fraction
entries and Newton interpolation of an integer polynomial from exact values
are the independent test oracle for both: nothing on the verify path calls
them and `exactmath` does not export them.  They stay here, not under tests/,
only because perfbench's tracer wraps `bareiss_determinant` and
`interpolate_integer_polynomial` by name, until ROADMAP item 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import (
    monic_from_power_sums,
    root_power_sums,
    univariate_divmod,
    univariate_mul,
    univariate_trim,
)


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact integer division in Bareiss elimination")
        return q
    return Fraction(a) / Fraction(b)


def bareiss_determinant(matrix: Sequence[Sequence]) -> object:
    """Determinant of an int/Fraction matrix by Bareiss's fraction-free
    elimination (exact)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_div(
                    m[k][k] * m[i][j] - m[i][k] * m[k][j], prev
                )
            m[i][k] = 0
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_matrix(f: Sequence, g: Sequence) -> list[list]:
    """Sylvester matrix of two dense ascending coefficient lists."""
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        raise ValueError("zero polynomial has no Sylvester matrix")
    n = df + dg
    rows = []
    for shift in range(dg):
        row = [0] * n
        for i, c in enumerate(reversed(f)):
            row[shift + i] = c
        rows.append(row)
    for shift in range(df):
        row = [0] * n
        for i, c in enumerate(reversed(g)):
            row[shift + i] = c
        rows.append(row)
    return rows


def resultant_coeffs(f: Sequence, g: Sequence):
    """Resultant of two polynomials given as dense ascending coefficients."""
    f = univariate_trim(f)
    g = univariate_trim(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial is undefined")
    df, dg = len(f) - 1, len(g) - 1
    if df == 0 and dg == 0:
        raise ValueError("resultant needs at least one nonconstant argument")
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    return bareiss_determinant(sylvester_matrix(f, g))


def interpolate_integer_polynomial(points: Sequence[tuple[int, int]]) -> list[int]:
    """Integer polynomial (ascending coefficients) through the given points.

    Newton's divided differences over exact Fractions; raises if the result
    is not integral.  The degree is len(points) - 1.
    """
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form prod (x - xs[i]) incrementally
    coeffs = [Fraction(0)] * n
    coeffs[0] = divided[0]
    basis = [Fraction(1)]
    for i in range(1, n):
        basis = univariate_mul(basis, [-xs[i - 1], 1])
        for j, c in enumerate(basis):
            coeffs[j] += divided[i] * c
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("interpolated polynomial is not integral")
    return univariate_trim(int(c) for c in coeffs) or [0]


def _integral(coeffs) -> tuple[int, ...]:
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("power-sum resultant is not integral")
    return tuple(int(c) for c in coeffs)


def characteristic_polynomial(
    values_of: Sequence, modulus: Sequence[int]
) -> tuple[int, ...]:
    """Res_j(H(j), w - g(j)) = lc(H)^deg(g) prod (w - g(root)) over the roots
    of H, as ascending integer coefficients in w (checked integral).

    H = modulus is any nonzero integer polynomial; g = values_of may have
    rational coefficients, with common denominator d.  The power sums of the
    d g(root) are the traces of (d g)^k mod H, read off from the root power
    sums of H; Newton's identities turn them into prod (w - d g(root)), whose
    coefficient of w^k divided by d^(h-k) is that of the monic product, which
    is then scaled by lc(H)^deg(g).
    """
    g, modulus = univariate_trim(values_of), univariate_trim(modulus)
    h = len(modulus) - 1
    den = math.lcm(*(c.denominator for c in g))
    sums = root_power_sums(modulus, h - 1)
    reduced = univariate_divmod([int(den * c) for c in g], modulus)[1]
    power = [1]
    traces = []
    for _ in range(h):
        power = univariate_divmod(univariate_mul(power, reduced), modulus)[1]
        traces.append(sum(c * sums[d] for d, c in enumerate(power)))
    monic = [Fraction(c, den ** (h - k)) for k, c in enumerate(monic_from_power_sums(traces))]
    scale = modulus[-1] ** max(len(g) - 1, 0)
    return _integral([scale * c for c in monic])


def difference_root_resultant(coeffs: Sequence[int]) -> list[int]:
    """D(z) = Res_y(f(y), f(y+z)) for an integer polynomial f, exactly.

    With a = lc(f), n = deg f and roots r_i, D(z) = a^(2n) prod_(i,j) (z - (r_i - r_j))
    has degree n**2.  The differences come in pairs +-(r_i - r_j), so
    D(z) = a^(2n) z^n E(z^2) with E(u) = prod_(i<j) (u - (r_i - r_j)^2) of degree
    n(n-1)/2.  The power sums of all n**2 differences are
    p_m = sum_k C(m, k) (-1)^k s_k s_(m-k) in the root power sums s_k of f; they
    vanish for odd m, and the roots of E have the power sums p_(2m)/2, where the
    terms k and 2m - k are equal and the middle one has the even C(2m, m).
    Newton's identities turn those sums into E, then scaled by a^(2n).
    """
    f = univariate_trim(int(c) for c in coeffs)
    if len(f) < 2:
        raise ValueError("need a nonconstant polynomial")
    n = len(f) - 1
    pairs = n * (n - 1) // 2
    s = root_power_sums(f, 2 * pairs)
    half_sums = []
    for m in range(2, 2 * pairs + 1, 2):
        total, binom = 0, 1
        for k in range(m // 2):
            term = binom * s[k] * s[m - k]
            total += -term if k % 2 else term
            binom = binom * (m - k) // (k + 1)
        middle = binom // 2 * s[m // 2] ** 2
        total += -middle if m // 2 % 2 else middle
        half_sums.append(total)
    scale = f[-1] ** (2 * n)
    D = [0] * (n * n + 1)
    D[n::2] = monic_from_power_sums(half_sums)
    return list(_integral([scale * c for c in D]))

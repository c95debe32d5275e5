"""The integer and rational layer under the rest of `exactmath`.

It holds the dense univariate kernel, the p-adic valuation of a rational and
the affine pieces of parametric valuations.  It imports no other `exactmath`
module, so the class-polynomial path (`polygon`, `resultant`, `cmlab`) loads
it without the symbolic polynomials of `poly` and `valuation`.

The univariate kernel works on dense ascending coefficient lists: trim,
multiply, divmod, gcd, squarefree part, root power sums and their
Newton-identity inversion.  It is the one implementation of these operations
in the package.  Coefficients are ints or Fractions and keep the ring of the
inputs: a division by a leading coefficient stays integral whenever it is
exact, so integer input divided by a monic divisor never turns into
Fractions.

The extended valuation type is ``Fraction | INF`` where ``INF`` is the float
infinity: it absorbs addition and compares above every Fraction, which is
exactly the arithmetic the valuation of 0 needs.  All finite valuations stay
Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .. import is_prime

INF = float("inf")

ExtValuation = Fraction | float  # finite values are Fraction, infinity is INF


def is_finite(v: ExtValuation) -> bool:
    return v != INF


def val_rat(q, p: int) -> ExtValuation:
    """Exponent of the prime p in the rational q; val_rat(0) is INF."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INF
    k = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        k += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        k -= 1
    return Fraction(k)


class Affine(NamedTuple):
    """The affine function constant + slope * lambda, with exact coefficients.

    Used for coefficient valuations that depend on a parameter lambda (the
    valuation of a coordinate ranging over an annulus or disk).
    """

    constant: Fraction
    slope: Fraction

    def __call__(self, lam) -> Fraction:
        return self.constant + self.slope * Fraction(lam)

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.constant + other.constant, self.slope + other.slope)

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.constant - other.constant, self.slope - other.slope)

    def root(self) -> Fraction | None:
        """The lambda where the function vanishes, if the slope is nonzero."""
        if self.slope == 0:
            return None
        return -self.constant / self.slope


def affine(constant, slope=0) -> Affine:
    return Affine(Fraction(constant), Fraction(slope))


# -- univariate kernel (dense ascending coefficient lists) ------------------


def _exact_quotient(a, b):
    """a / b: an int when both are ints and b divides a, else a Fraction."""
    if b == 1:
        return a
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a) / b


def univariate_trim(p: Iterable) -> list:
    """Copy without trailing zero coefficients; the zero polynomial is []."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def univariate_mul(a: Sequence, b: Sequence) -> list:
    """Product of two dense coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b):
                out[i + k] += ca * cb
    return out


def univariate_divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and (trimmed) remainder of num by den."""
    den = univariate_trim(den)
    if not den:
        raise ZeroDivisionError("univariate division by zero")
    rem, lead, n = list(num), den[-1], len(den) - 1
    quot = [0] * max(len(rem) - n, 0)
    for shift in range(len(quot) - 1, -1, -1):
        factor = _exact_quotient(rem.pop(), lead)
        if factor:
            quot[shift] = factor
            for i in range(n):
                rem[shift + i] -= factor * den[i]
    return quot, univariate_trim(rem)


def univariate_gcd(a: Sequence, b: Sequence) -> list:
    """gcd of two dense coefficient lists by Euclid over Q; [0] if both are zero.

    It is monic, except for integer input: there it is the primitive integer
    gcd with a positive leading coefficient, which by Gauss's lemma divides
    each input in Z[x], so quotients by it stay ints.
    """
    integral = all(type(c) is int for c in (*a, *b))
    a, b = univariate_trim(a), univariate_trim(b)
    while b:
        a, b = b, univariate_divmod(a, b)[1]
    if not a:
        return [0]
    monic = [_exact_quotient(c, a[-1]) for c in a]
    if not integral:
        return monic
    # the lcm of the denominators clears them and leaves content 1
    scale = math.lcm(*(Fraction(c).denominator for c in monic))
    return [int(c * scale) for c in monic]


def squarefree_part(f: Sequence) -> list:
    """f / gcd(f, f'): each distinct root of f once; integer input stays in ints."""
    derivative = [k * c for k, c in enumerate(f)][1:]
    quotient, rem = univariate_divmod(f, univariate_gcd(f, derivative))
    if rem:
        raise ArithmeticError("gcd(f, f') does not divide f")
    return quotient


def root_power_sums(f: Sequence, count: int) -> list:
    """Power sums s_0..s_count of the roots of f, with multiplicity, by
    Newton's identities  lc * s_k = -(k f_(n-k) + sum_(0<i<k) f_(n-i) s_(k-i)),
    where f_j = 0 for j < 0."""
    f = univariate_trim(f)
    n, lead = len(f) - 1, f[-1]
    sums = [n]
    for k in range(1, count + 1):
        total = k * f[n - k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            total += f[n - i] * sums[k - i]
        sums.append(_exact_quotient(-total, lead))
    return sums


def monic_from_power_sums(sums: Sequence) -> list:
    """Monic polynomial of degree len(sums) whose roots have the power sums
    p_1, p_2, ... = sums: Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i
    give the elementary symmetric functions, and the coefficient of z^(n-k)
    is (-1)^k e_k."""
    e = [1]
    for k in range(1, len(sums) + 1):
        total = 0
        for i in range(1, k + 1):
            term = e[k - i] * sums[i - 1]
            total += term if i % 2 else -term
        e.append(_exact_quotient(total, k))
    return [-e[k] if k % 2 else e[k] for k in range(len(sums), -1, -1)]

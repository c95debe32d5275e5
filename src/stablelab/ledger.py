"""Genus and census bookkeeping for X0(N) and the conjectural X0(p^3) picture.

Implements the classical genus formula for X0(N), the supersingular class
survey with automorphism orders (checked against the Eichler mass formula),
and a per-prime component budget that the conjectural stable-model
components must fit into.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import CertificateError, legendre_symbol, quatlab
from .exactmath import is_prime

F = Fraction


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list[int]:
    divs = [1]
    for prime, mult in _factorize(n).items():
        divs = [d * prime**k for d in divs for k in range(mult + 1)]
    return sorted(divs)


def _euler_phi(n: int) -> int:
    out = n
    for prime in _factorize(n):
        out = out // prime * (prime - 1)
    return out


def genus_x0(N: int) -> int:
    """Genus of X0(N): 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2."""
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return 0
    primes = list(_factorize(N))
    mu = N
    for p in primes:
        mu = mu // p * (p + 1)

    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in primes:
            nu2 *= 1 + kronecker(-4, p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in primes:
            nu3 *= 1 + kronecker(-3, p)
    nu_inf = sum(_euler_phi(math.gcd(d, N // d)) for d in _divisors(N))

    genus = 1 + F(mu, 12) - F(nu2, 4) - F(nu3, 3) - F(nu_inf, 2)
    if genus.denominator != 1 or genus < 0:
        raise CertificateError(f"genus formula gives {genus} for N = {N}")
    return int(genus)


#: (d/2) for d = -4 and -3, where Euler's criterion does not apply: 2
#: ramifies in Z[i] and stays inert in Z[omega] (-3 = 5 mod 8)
_KRONECKER_AT_2 = {-4: 0, -3: -1}


def kronecker(d: int, p: int) -> int:
    """(d/p) for the discriminants d = -4, -3 of Z[i], Z[omega] and a prime
    p: 0, 1 or -1 as p ramifies, splits or stays inert.  The elliptic-point
    counts of `genus_x0` and the j = 1728, 0 entries of `ss_survey` read it."""
    return _KRONECKER_AT_2[d] if p == 2 else legendre_symbol(d, p)


# -- supersingular survey -----------------------------------------------------


class SSClassSurvey(NamedTuple):
    entries: tuple[tuple[int, int], ...]  # (|Aut|, number of curves)

    @property
    def mass(self) -> Fraction:
        """sum 1/|Aut| over the curves of the census."""
        return sum(F(n, a) for a, n in self.entries)


def ss_survey(p: int) -> SSClassSurvey:
    """Supersingular curves over F_p-bar counted by automorphism order.

    j = 0 is supersingular iff p is inert in Z[omega], (-3/p) = -1
    (|Aut| = 6), and j = 1728 iff p is inert in Z[i], (-4/p) = -1
    (|Aut| = 4); the rest have |Aut| = 2, with the count fixed
    by the Eichler mass formula sum 1/|Aut| = (p-1)/24.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("survey needs a prime p > 3")
    has6 = 1 if kronecker(-3, p) == -1 else 0
    has4 = 1 if kronecker(-4, p) == -1 else 0
    rest = F(p - 1, 12) - F(has4, 2) - F(has6, 3)
    if rest.denominator != 1 or rest < 0:
        raise CertificateError(f"p = {p} leaves {rest} curves with |Aut| = 2")
    entries = []
    if rest:
        entries.append((2, int(rest)))
    if has4:
        entries.append((4, 1))
    if has6:
        entries.append((6, 1))
    survey = SSClassSurvey(tuple(entries))
    if survey.mass != F(p - 1, 24):
        raise CertificateError(
            f"Eichler mass formula fails at p = {p}: sum 1/|Aut| = {survey.mass}, "
            f"not (p-1)/24 = {F(p - 1, 24)}"
        )
    return survey


def supersingular_j_invariants(p: int) -> tuple[int, ...]:
    """Supersingular j-invariants in F_p, by brute-force point counting.

    A curve over F_p with p >= 5 is supersingular iff #E(F_p) = p + 1, and
    #E(F_p) = p + 1 + sum over x of ((x^3 + ax + b)/p).
    """
    if p < 5 or not is_prime(p):
        raise ValueError("need a prime p >= 5")

    def curve_for_j(j: int) -> tuple[int, int]:
        if j % p == 0:
            return 0, 1
        if j % p == 1728 % p:
            return 1, 0
        k = j * pow(1728 - j, -1, p) % p
        return 3 * k % p, 2 * k % p

    out = []
    for j in range(p):
        a, b = curve_for_j(j)
        if sum(legendre_symbol(x * x * x + a * x + b, p) for x in range(p)) == 0:
            out.append(j)
    return tuple(out)


# -- component budgets -------------------------------------------------------


def component_budget(p: int, survey: SSClassSurvey, curve_genus: int) -> int:
    """Known genus total of the conjectural components of X0(p^3) (guess
    3.4.6), from the census `ss_survey(p)` and the genus `genus_x0(p**3)`.

    Per supersingular curve with i = |Aut|/2: one component over the
    Atkin-Lehner circle and two Edixhoven-type components, all of genus 0,
    and 2(p+1)/i components (twice `quatlab.class_count`) of genus (p-1)/2 each;
    plus the six ordinary components, of genus 0.  The known total must not
    exceed the genus of X0(p^3); for p = 5 it is exactly 8 = 4 * 2.
    """
    total = 0
    for aut_order, count in survey.entries:
        total += count * 2 * quatlab.class_count(p, aut_order) * ((p - 1) // 2)
    if total > curve_genus:
        raise CertificateError(
            f"component budget {total} exceeds the genus {curve_genus} of X0({p**3})"
        )
    return total

"""p-adic valuations of rationals, monomials and polynomial expressions.

The extended valuation type is ``Fraction | INF`` where ``INF`` is the float
infinity: it absorbs addition and compares above every Fraction, which is
exactly the arithmetic the valuation of 0 needs.  All finite valuations stay
Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .. import is_prime
from .poly import Monomial, SymbolicPolynomial, poly_to_coeffs
from .resultant import characteristic_polynomial

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


class MinValuation(NamedTuple):
    """Generic minimum valuation of a polynomial under a symbol assignment.

    ``value`` is a lower bound for the valuation of any evaluation of the
    polynomial; it is the exact valuation whenever ``unique`` holds (a single
    monomial attains the minimum, so no cancellation can occur).
    """

    value: ExtValuation
    witnesses: tuple[Monomial, ...]
    unique: bool


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


def param_valuations(
    f: SymbolicPolynomial,
    fixed: Mapping[str, Fraction],
    scaling: Mapping[str, Fraction],
    p: int,
    shift: Affine | None = None,
) -> list[tuple[Affine, Monomial]]:
    """Per-monomial valuations as affine functions of a parameter lambda.

    Symbols in ``fixed`` contribute a constant valuation; symbols in
    ``scaling`` contribute weight * lambda.  ``shift`` (if given) is added to
    every monomial, which is how an overall factor like s**-10 enters.
    """
    out = []
    for mono, coeff in f.items():
        const = val_rat(coeff, p)
        if not is_finite(const):
            continue
        slope = Fraction(0)
        for name, e in mono:
            if name in fixed:
                const += e * Fraction(fixed[name])
            elif name in scaling:
                slope += e * Fraction(scaling[name])
            else:
                raise KeyError(f"symbol {name!r} has no assigned valuation")
        fn = Affine(const, slope)
        if shift is not None:
            fn = fn + shift
        out.append((fn, mono))
    return out


def min_valuation(
    f: SymbolicPolynomial, assignment: Mapping[str, Fraction], p: int
) -> MinValuation:
    """The point case of ``param_valuations``: no symbol scales with lambda,
    so each monomial's valuation is the constant of its piece."""
    best: ExtValuation = INF
    witnesses: list[Monomial] = []
    for fn, mono in param_valuations(f, assignment, {}, p):
        if fn.constant < best:
            best, witnesses = fn.constant, [mono]
        elif fn.constant == best:
            witnesses.append(mono)
    return MinValuation(best, tuple(sorted(witnesses)), len(witnesses) == 1)


def envelope_min(
    pieces: Sequence[Affine], lam
) -> tuple[Fraction, tuple[Affine, ...]]:
    """Minimum of the affine pieces at lambda, with the attaining pieces."""
    lam = Fraction(lam)
    best = None
    witnesses: list[Affine] = []
    for fn in pieces:
        v = fn(lam)
        if best is None or v < best:
            best, witnesses = v, [fn]
        elif v == best:
            witnesses.append(fn)
    if best is None:
        raise ValueError("empty envelope")
    return best, tuple(witnesses)


def dominant_piece(pieces: Sequence[Affine], lo, hi) -> Affine | None:
    """The piece strictly below every other piece on the open interval (lo, hi).

    The difference of two pieces is affine, so it is > 0 on the whole open
    interval exactly when it is >= 0 at both endpoints and not 0 at both;
    that is decided at lo and hi.  A piece listed twice ties its copy and is
    never dominant.  None when no piece dominates.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    others = list(pieces)
    if not others:
        raise ValueError("no pieces")
    best = min(others, key=lambda fn: fn((lo + hi) / 2))
    others.remove(best)
    for fn in others:
        gap = fn - best
        if gap(lo) < 0 or gap(hi) < 0 or gap(lo) == gap(hi) == 0:
            return None
    return best


def field_valuation(
    a: SymbolicPolynomial, var: str, minpoly: SymbolicPolynomial, p: int
) -> ExtValuation:
    """Valuation of an element of a totally ramified extension Q(var).

    The minimal polynomial must be monic with integer coefficients and a
    pure-slope Newton polygon whose slope has denominator deg(minpoly); then
    the extension of the p-adic valuation is determined by the norm alone:
    v(a) = val_rat(N(a)) / deg(minpoly).  The norm of d*a, with d the common
    denominator of a's coefficients, is (-1)^deg times the constant term of
    the characteristic polynomial of d*a (power sums of the roots), and
    v(a) = v(d*a) - v(d).  Anything else is rejected rather than approximated.
    """
    from .polygon import newton_polygon

    mcoeffs = poly_to_coeffs(minpoly, var)
    deg = len(mcoeffs) - 1
    if deg < 1 or mcoeffs[-1] != 1 or any(c.denominator != 1 for c in mcoeffs):
        raise ValueError(
            "minimal polynomial must be monic of positive degree with integer coefficients"
        )
    polygon = newton_polygon([val_rat(c, p) for c in mcoeffs])
    if len(polygon.segments) != 1:
        raise ValueError("Newton polygon of the minimal polynomial is not pure-slope")
    slope, length = polygon.segments[0]
    if length != deg or (-slope).denominator != deg:
        raise ValueError(
            "extension is not totally ramified; valuation not determined by the norm"
        )
    if a.is_zero():
        return INF
    extra = a.symbols() - {var}
    if extra:
        raise ValueError(f"element involves symbols beyond {var!r}: {sorted(extra)}")
    coeffs = poly_to_coeffs(a, var)
    d = math.lcm(*(c.denominator for c in coeffs))
    modulus = [int(c) for c in mcoeffs]
    signed_norm = characteristic_polynomial([int(c * d) for c in coeffs], modulus)[0]
    return val_rat(signed_norm, p) / deg - val_rat(d, p)

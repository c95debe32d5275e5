"""p-adic valuations of rationals, monomials and polynomial expressions.

The extended valuation type is ``Fraction | INF`` where ``INF`` is the float
infinity: it absorbs addition and compares above every Fraction, which is
exactly the arithmetic the valuation of 0 needs.  All finite valuations stay
Fractions.

Every valuation of a polynomial expression is read off its monomials by
``param_valuations``, whose point case ``valuation_levels`` groups them by
valuation; a symbol's valuation is the one stated in its ``ValuedSymbol``,
certified against its rewrite rule by ``symbol_valuations``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .. import CertificateError, is_prime
from .poly import Monomial, SymbolicPolynomial, ValuedSymbol, normal_form

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


def valuation_levels(
    f: SymbolicPolynomial, assignment: Mapping[str, Fraction], p: int
) -> tuple[tuple[Fraction, tuple[Monomial, ...]], ...]:
    """The point case of ``param_valuations`` (no symbol scales with lambda):
    the monomials of f as (valuation, sorted monomials), lowest level first."""
    levels: dict[Fraction, list[Monomial]] = {}
    for fn, mono in param_valuations(f, assignment, {}, p):
        levels.setdefault(fn.constant, []).append(mono)
    return tuple((v, tuple(sorted(monos))) for v, monos in sorted(levels.items()))


def min_valuation(
    f: SymbolicPolynomial, assignment: Mapping[str, Fraction], p: int
) -> MinValuation:
    """The lowest of ``valuation_levels``, or INF for the zero polynomial."""
    levels = valuation_levels(f, assignment, p)
    value, witnesses = levels[0] if levels else (INF, ())
    return MinValuation(value, witnesses, len(witnesses) == 1)


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


def symbol_valuations(symbols: Iterable[ValuedSymbol], p: int) -> dict[str, Fraction]:
    """The stated valuation of each symbol, certified against its rule.

    Symbols are read in order.  A rule s**n -> g says s is a root of
    s**n - g; g is valued with the symbols before s and with s itself, and
    v(s) is certified when n * v(s) equals that minimum and a single monomial
    of g attains it: then the line of slope -v(s) meets the Newton polygon of
    s**n - g along an edge, so a root of valuation v(s) exists.  Returns
    name -> valuation; the first symbol that fails raises CertificateError.
    """
    valuations: dict[str, Fraction] = {}
    for s in symbols:
        n, g = s.rewrite
        valuations[s.name] = s.valuation
        mv = min_valuation(g, valuations, p)
        if not (mv.unique and mv.value == n * s.valuation):
            raise CertificateError(
                f"v({s.name}) = {s.valuation} does not fit the rule {s.name}^{n} -> {g}: "
                f"{n} * v({s.name}) = {n * s.valuation}, but the rule's minimum is "
                f"{mv.value}, attained by {len(mv.witnesses)} monomials"
            )
    return valuations


def field_valuation(a: SymbolicPolynomial, symbol: ValuedSymbol, p: int) -> ExtValuation:
    """Valuation of an element a of Q(symbol), the point case of the one rule.

    a is normal-formed by the symbol's rule and valued monomial by monomial
    at the symbol's certified valuation; a unique minimum is exact, and a tie
    raises ValueError rather than report a bound.
    """
    a = normal_form(a, [symbol])
    if a.is_zero():
        return INF
    mv = min_valuation(a, symbol_valuations([symbol], p), p)
    if not mv.unique:
        raise ValueError(f"monomials {mv.witnesses} of {a} tie at valuation {mv.value}")
    return mv.value

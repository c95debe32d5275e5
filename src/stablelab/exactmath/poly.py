"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dictionary mapping monomials to nonzero rational
coefficients, each an int when it is integral and a Fraction otherwise, so
integer polynomials stay in integer arithmetic.  A monomial is a sorted tuple
of (symbol, exponent) pairs with all exponents positive; the empty tuple is
the constant monomial.  This keeps every computation exact, which is the
whole point: downstream certificates (Newton polygons, dominance arguments,
reduction identities) must never see a float.

Symbols may carry a rewrite rule ``symbol**n -> replacement`` (for example a
defining relation of an algebraic number, or a formal square root); see
:class:`ValuedSymbol` and :func:`normal_form`.

``poly_to_coeffs`` turns a univariate polynomial into the dense ascending
coefficient list that the univariate kernel of `exactmath.kernel` works on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .kernel import _exact_quotient, univariate_trim

Monomial = tuple[tuple[str, int], ...]

_ZERO = 0


def _coefficient(value):
    """The exact rational value as an int when it is integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class SymbolicPolynomial:
    """Immutable sparse polynomial with int or Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    clean[mono] = _coefficient(coeff)
        self.terms: dict[Monomial, Fraction] = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value) -> SymbolicPolynomial:
        return SymbolicPolynomial({(): value})

    @staticmethod
    def zero() -> SymbolicPolynomial:
        return SymbolicPolynomial()

    @staticmethod
    def variable(name: str) -> SymbolicPolynomial:
        return SymbolicPolynomial({((name, 1),): 1})

    @staticmethod
    def _coerce(value) -> SymbolicPolynomial:
        if isinstance(value, SymbolicPolynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return SymbolicPolynomial.constant(value)
        raise TypeError(f"cannot coerce {value!r} to SymbolicPolynomial")

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), _ZERO)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    def degree(self, var: str) -> int:
        deg = 0
        for mono in self.terms:
            for name, e in mono:
                if name == var and e > deg:
                    deg = e
        return deg

    def as_univariate(self, var: str) -> dict[int, SymbolicPolynomial]:
        """Split into {exponent of var: coefficient polynomial}."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            e = 0
            rest = []
            for name, k in mono:
                if name == var:
                    e = k
                else:
                    rest.append((name, k))
            buckets.setdefault(e, {})[tuple(rest)] = coeff
        return {e: SymbolicPolynomial(t) for e, t in buckets.items()}

    def coefficient(self, var: str, exponent: int) -> SymbolicPolynomial:
        return self.as_univariate(var).get(exponent, SymbolicPolynomial.zero())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> SymbolicPolynomial:
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, _ZERO) + coeff
        return SymbolicPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> SymbolicPolynomial:
        return SymbolicPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> SymbolicPolynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> SymbolicPolynomial:
        return self._coerce(other) - self

    def __mul__(self, other) -> SymbolicPolynomial:
        other = self._coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, _ZERO) + c1 * c2
        return SymbolicPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> SymbolicPolynomial:
        scalar = _coefficient(scalar)
        return SymbolicPolynomial({m: _exact_quotient(c, scalar) for m, c in self.terms.items()})

    def __pow__(self, n: int) -> SymbolicPolynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SymbolicPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymbolicPolynomial.constant(other)
        if not isinstance(other, SymbolicPolynomial):
            return NotImplemented
        return self.terms == other.terms

    # -- structural operations ----------------------------------------------

    def substitute(self, var: str, replacement) -> SymbolicPolynomial:
        """Exact composition: replace every occurrence of var."""
        replacement = self._coerce(replacement)
        out = SymbolicPolynomial.zero()
        powers: dict[int, SymbolicPolynomial] = {0: SymbolicPolynomial.constant(1)}
        for e, coeff_poly in self.as_univariate(var).items():
            if e not in powers:
                powers[e] = replacement ** e
            out = out + coeff_poly * powers[e]
        return out

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = _ZERO
        for mono, coeff in self.terms.items():
            value = coeff
            for name, e in mono:
                if name not in assignment:
                    raise KeyError(f"no value assigned to symbol {name!r}")
                value *= Fraction(assignment[name]) ** e
            total += value
        return total

    def derivative(self, var: str) -> SymbolicPolynomial:
        out: dict[Monomial, Fraction] = {}
        for e, coeff_poly in self.as_univariate(var).items():
            if e == 0:
                continue
            for mono, coeff in coeff_poly.terms.items():
                new = _mono_mul(mono, ((var, e - 1),)) if e > 1 else mono
                out[new] = out.get(new, _ZERO) + e * coeff
        return SymbolicPolynomial(out)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            body = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in mono
            )
            if body:
                lead = "" if coeff == 1 else ("-" if coeff == -1 else f"{coeff}*")
                parts.append(f"{lead}{body}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")


def sym(name: str) -> SymbolicPolynomial:
    """Shorthand constructor for a single-variable polynomial."""
    return SymbolicPolynomial.variable(name)


class ValuedSymbol(
    NamedTuple(
        "ValuedSymbol",
        [("name", str), ("valuation", Fraction), ("rewrite", tuple[int, SymbolicPolynomial])],
    )
):
    """A formal coordinate with a stated valuation and its rewrite rule.

    ``rewrite = (n, g)`` means symbol**n rewrites to the polynomial g, e.g.
    a root r of r**5 + 25r - 25 carries the rule r**5 -> 25 - 25r, and a
    formal sqrt(15) carries sqrt15**2 -> 15.  The replacement must have
    degree < n in the symbol itself so rewriting terminates.  The stated
    valuation is certified against the rule by
    ``valuation.symbol_valuations``, which is where certificates read it.
    """

    __slots__ = ()

    def __new__(cls, name: str, valuation: Fraction, rewrite: tuple[int, SymbolicPolynomial]):
        n, g = rewrite
        poly = SymbolicPolynomial._coerce(g)
        if n < 1 or poly.degree(name) >= n:
            raise ValueError(f"rewrite for {name} must replace a power by lower-degree terms")
        return super().__new__(cls, name, valuation, (n, poly))


def normal_form(
    f: SymbolicPolynomial, symbols: Iterable[ValuedSymbol]
) -> SymbolicPolynomial:
    """Reduce f so every rewritten symbol appears below its rewrite power.

    The rules must rewrite distinct symbols (checked).  Rules are applied to
    a fixpoint, so replacements are free to introduce other rewritten symbols
    (e.g. beta**2 -> 5*alpha with alpha**2 -> 5).
    """
    rules: dict[str, tuple[int, SymbolicPolynomial]] = {}
    for s in symbols:
        if s.name in rules:
            raise ValueError(f"conflicting rewrite rules for symbol {s.name!r}")
        rules[s.name] = s.rewrite
    if not rules:
        return f

    for _ in range(10_000):
        out: dict[Monomial, Fraction] = {}
        changed = False
        for mono, coeff in f.terms.items():
            reducible = None
            for name, e in mono:
                if name in rules and e >= rules[name][0]:
                    reducible = (name, e)
                    break
            if reducible is None:
                out[mono] = out.get(mono, _ZERO) + coeff
                continue
            changed = True
            name, e = reducible
            n, g = rules[name]
            rest = tuple((nm, k) for nm, k in mono if nm != name)
            stub = _mono_mul(rest, ((name, e - n),)) if e > n else rest
            piece = SymbolicPolynomial({stub: coeff}) * g
            for m2, c2 in piece.terms.items():
                out[m2] = out.get(m2, _ZERO) + c2
        f = SymbolicPolynomial(out)
        if not changed:
            return f
    raise RuntimeError("rewrite system did not terminate")


def poly_to_coeffs(f: SymbolicPolynomial, var: str) -> list[Fraction]:
    """Dense ascending coefficient list of a univariate polynomial."""
    parts = f.as_univariate(var)
    out = [_ZERO] * (max(parts, default=0) + 1)
    for e, c in parts.items():
        if not c.is_constant():
            raise ValueError(f"{f!r} is not univariate in {var!r}")
        out[e] = c.constant_value()
    return univariate_trim(out) or [_ZERO]

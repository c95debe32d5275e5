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

The univariate kernel at the end of the module works on dense ascending
coefficient lists: trim, multiply, divmod, gcd, squarefree part, root power
sums and their Newton-identity inversion.  It is the one implementation of
these operations in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# -- univariate kernel (dense ascending coefficient lists) ------------------
#
# Coefficients are ints or Fractions and keep the ring of the inputs: a
# division by a leading coefficient stays integral whenever it is exact, so
# integer input divided by a monic divisor never turns into Fractions.


def poly_to_coeffs(f: SymbolicPolynomial, var: str) -> list[Fraction]:
    """Dense ascending coefficient list of a univariate polynomial."""
    parts = f.as_univariate(var)
    out = [_ZERO] * (max(parts, default=0) + 1)
    for e, c in parts.items():
        if not c.is_constant():
            raise ValueError(f"{f!r} is not univariate in {var!r}")
        out[e] = c.constant_value()
    return univariate_trim(out) or [_ZERO]


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
        return [_ZERO]
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

"""Class polynomials of imaginary quadratic orders and p-adic placement checks.

Roots of class polynomials are eta quotients j = (x + 256)^3 / x^2 with
x = (eta(tau) / eta(2 tau))^24, evaluated at controlled binary precision
(mpmath), assembled into a monic polynomial, and rounded to integers only
when the rounding is unambiguous at two precision levels.  The p-adic
placement conjectures are then certified per root, in pure integer arithmetic,
through the Newton polygon of G(w) = Res_j(H(j), w - ((j-c)^e -/+ m)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpc, mpf

from .exactmath import INF, characteristic_polynomial, newton_polygon, univariate_mul, val_rat

SERIES_GUARD_BITS = 64
ROUNDING_TOLERANCE = 1e-6
MAX_PRECISION_DOUBLINGS = 3


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant() >= 0:
            raise ValueError("form must have negative discriminant")

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def tau(self) -> "Tau":
        return Tau(-self.b, 1, -self.discriminant(), 2 * self.a)


@dataclass(frozen=True)
class Tau:
    """The upper-half-plane point (re_num + im_num * sqrt(-n)) / den."""

    re_num: int
    im_num: int
    n: int
    den: int

    def to_mpc(self) -> mpc:
        root = mp.sqrt(mpf(self.n))
        return mpc(mpf(self.re_num) / self.den, self.im_num * root / self.den)

    def imag_float(self) -> float:
        return self.im_num * math.sqrt(self.n) / self.den


def reduced_forms(discriminant: int) -> list[QuadForm]:
    """All primitive reduced forms of the given negative discriminant."""
    D = discriminant
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a valid imaginary quadratic discriminant")
    forms = []
    a_max = math.isqrt(abs(D) // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            form = QuadForm(a, b, c)
            if form.is_reduced() and form.is_primitive():
                forms.append(form)
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def class_number(discriminant: int) -> int:
    return len(reduced_forms(discriminant))


# -- eta quotient -----------------------------------------------------------


def j_tau(tau: mpc, precision: int) -> mpc:
    """j(tau) = (x + 256)^3 / x^2, x = (eta(tau) / eta(2 tau))^24 = (P(q) / P(q^2))^24 / q,
    with Euler's pentagonal series P(q) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2))
    cut to the terms q^e with e log2|1/q| <= precision + 64.  Each dropped tail is
    below 2^-(precision + 64) / (1 - |q|), so for reduced tau (|q| < 0.0044,
    |P| > 0.995) below 1.01 * 2^-(precision + 64) relative to its series."""
    with mp.workprec(precision + SERIES_GUARD_BITS):
        tau = mpc(tau)
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        q = mp.exp(2j * mp.pi * tau)
        max_exponent = int((precision + SERIES_GUARD_BITS) * mp.ln(2) / (2 * mp.pi * tau.imag))
        if max_exponent > 2_000_000:
            raise ValueError("truncation bound overflow: tau too close to the real line")
        p_q, p_q2, term, q_k, k, sign = mpc(1), mpc(1), q, q, 1, -1  # term = q^(k(3k-1)/2)
        while k * (3 * k - 1) // 2 <= max_exponent:
            for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if exponent <= max_exponent:
                    p_q += sign * term
                if 2 * exponent <= max_exponent:
                    p_q2 += sign * term * term  # (q^2)^exponent
                term *= q_k
            q_k *= q
            term *= q_k  # q^((k+1)(3k+2)/2)
            k, sign = k + 1, -sign
        x = p_q / p_q2
        for _ in range(3):  # (P(q) / P(q^2))^8 by three squarings
            x *= x
        x = x * x * x / q
        return (x + 256) * (x + 256) * (x + 256) / (x * x)


# -- class polynomials ------------------------------------------------------


@dataclass(frozen=True)
class ClassPolynomial:
    discriminant: int
    coefficients: tuple[int, ...]  # ascending, constant term first, monic
    precision_used: int
    max_rounding_error: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


class ClassPolyCache:
    """Plain-text cache: one record per line, ``D h precision c_0 ... c_h``.

    Append-only; the last record for a discriminant wins.  A store is one
    write of a whole line to a descriptor opened with O_APPEND, so concurrent
    writers never drop each other's records.  A line without exactly h + 4
    integer fields (torn) is ignored, and a store after a torn last line
    starts a new line, so the torn line is the only loss.
    """

    def __init__(self, path: str):
        self.path = path

    def load(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        records: dict[int, tuple[int, tuple[int, ...]]] = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="ascii") as handle:
            for line in handle:
                try:
                    d, h, precision, *coeffs = map(int, line.split())
                except ValueError:
                    continue
                if len(coeffs) == h + 1:
                    records[d] = (precision, tuple(coeffs))
        return records

    def store(self, poly: ClassPolynomial) -> None:
        line = " ".join(
            [str(poly.discriminant), str(poly.degree), str(poly.precision_used)]
            + [str(c) for c in poly.coefficients]
        )
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = "\n" + line
            os.write(fd, (line + "\n").encode("ascii"))
        finally:
            os.close(fd)


def default_precision(discriminant: int) -> int:
    """256 bits plus padding informed by the class number and the largest |q|."""
    forms = reduced_forms(discriminant)
    im_min = min(f.tau().imag_float() for f in forms)
    log2_inv_qmax = 2 * math.pi * im_min / math.log(2)
    return 256 + math.ceil(10 * len(forms) * log2_inv_qmax)


def _round_product(taus: Sequence[Tau], precision: int) -> tuple[tuple[int, ...], float]:
    """Expand prod (X - j(tau)) at the given precision and round to integers."""
    with mp.workprec(precision + SERIES_GUARD_BITS):
        roots = [j_tau(t.to_mpc(), precision) for t in taus]
        coeffs = [mpc(1)]
        for root in roots:
            coeffs = [mpc(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= root * coeffs[k + 1]
        ints = []
        error = 0.0
        for c in coeffs:
            nearest = int(mp.nint(c.real))
            error = max(error, float(abs(c.real - nearest)), float(abs(c.imag)))
            ints.append(nearest)
    return tuple(ints), error


def polynomial_from_taus(
    taus: Sequence[Tau], precision: int
) -> tuple[tuple[int, ...], int, float]:
    """Monic integer polynomial with roots j(tau), rounding certified by a
    doubled-precision rerun; escalates precision up to three doublings."""
    ints1, err1 = _round_product(taus, precision)
    for _ in range(MAX_PRECISION_DOUBLINGS + 1):
        ints2, err2 = _round_product(taus, 2 * precision)
        if err1 < ROUNDING_TOLERANCE and err2 < ROUNDING_TOLERANCE and ints1 == ints2:
            return ints1, precision, max(err1, err2)
        precision, ints1, err1 = 2 * precision, ints2, err2  # reuse the doubled level
    raise ArithmeticError("rounding ambiguity persists after precision escalation")


def class_polynomial(
    discriminant: int,
    precision: int | None = None,
    cache: ClassPolyCache | None = None,
) -> ClassPolynomial:
    forms = reduced_forms(discriminant)
    if cache is not None:
        record = cache.load().get(discriminant)
        if record is not None:
            prec, coeffs = record
            if len(coeffs) == len(forms) + 1:
                return ClassPolynomial(discriminant, coeffs, prec, 0.0)
    if precision is None:
        precision = default_precision(discriminant)
    coeffs, used, error = polynomial_from_taus([f.tau() for f in forms], precision)
    poly = ClassPolynomial(discriminant, coeffs, used, error)
    if cache is not None:
        cache.store(poly)
    return poly


# -- p-adic congruence placement --------------------------------------------


@dataclass(frozen=True)
class CongruenceSpec:
    """Per-root requirement v_p((j - center)^exponent sign prime_power) > bound."""

    p: int
    center: int
    exponent: int
    sign: str  # "-" or "+"
    prime_power: int
    bound: Fraction


def congruence_case(discriminant: int, p: int) -> int:
    """1 if End tensor Z_p is Z_p[sqrt(-p)], 2 if Z_p[sqrt(-p*nonresidue)].

    Requires p to divide the discriminant exactly once (the conjectures'
    hypothesis); the case is decided by whether -discriminant/p is a square
    mod p.
    """
    if discriminant >= 0 or discriminant % p or (discriminant // p) % p == 0:
        raise ValueError(f"p = {p} must divide the discriminant {discriminant} exactly once")
    unit = (-(discriminant // p)) % p
    return 1 if pow(unit, (p - 1) // 2, p) == 1 else 2


def standard_spec(p: int, sign: str) -> CongruenceSpec:
    table = {
        5: (0, 2, 5**3, Fraction(3)),
        7: (1728, 4, 7**4, Fraction(4)),
        13: (5, 14, 13**7, Fraction(7)),
    }
    if p not in table:
        raise ValueError(f"no congruence data for p = {p}")
    if sign not in "+-":
        raise ValueError("sign must be '+' or '-'")
    center, exponent, power, bound = table[p]
    return CongruenceSpec(p, center, exponent, sign, power, bound)


@dataclass(frozen=True)
class CongruenceResult:
    passed: bool
    min_root_valuation: Fraction | float  # INF when every root is exact
    root_valuations: tuple[tuple[Fraction, int], ...]
    auxiliary: tuple[int, ...]  # G(w), ascending


def congruence_check(H: ClassPolynomial, spec: CongruenceSpec) -> CongruenceResult:
    """Per-root valuations of (j - c)^e -/+ m over the roots of H.

    The Newton polygon of G(w) = Res_j(H(j), w - ((j-c)^e -/+ m)) yields the
    exact multiset of root valuations; the check passes when the minimum
    exceeds the bound.
    """
    e, c = spec.exponent, spec.center
    shifted = [1]
    for _ in range(e):  # (j - c)^e, ascending
        shifted = univariate_mul(shifted, [-c, 1])
    shifted[0] += -spec.prime_power if spec.sign == "-" else spec.prime_power
    aux = characteristic_polynomial(shifted, list(H.coefficients))

    stripped = list(aux)
    exact_roots = 0
    while stripped and stripped[0] == 0:
        stripped.pop(0)
        exact_roots += 1
    multiset: list[tuple[Fraction, int]] = []
    if exact_roots:
        multiset.append((INF, exact_roots))
    if len(stripped) >= 2:
        polygon = newton_polygon([val_rat(coeff, spec.p) for coeff in stripped])
        multiset.extend(polygon.root_valuations())
    minimum = min((v for v, _ in multiset), default=INF)
    return CongruenceResult(
        passed=bool(minimum > spec.bound),
        min_root_valuation=minimum,
        root_valuations=tuple(multiset),
        auxiliary=aux,
    )


# -- the published example tables -------------------------------------------


@dataclass(frozen=True)
class TableRow:
    label: str  # order, by a generator over Z
    discriminant: int
    case: int  # 1: v(j^2 - 125) > 3; 2: v(j^2 + 125) > 3
    taus: tuple[Tau, ...]


def table_rows() -> tuple[TableRow, ...]:
    def row(label, disc, case, taus):
        return TableRow(label, disc, case, tuple(Tau(*t) for t in taus))

    return (
        row("Z[sqrt(-5)]", -20, 1, [(0, 1, 5, 1), (1, 1, 5, 2)]),
        row("Z[2sqrt(-5)]", -80, 1, [(0, 2, 5, 1), (2, 2, 5, 3), (4, 2, 5, 3), (0, 2, 5, 5)]),
        row("Z[3sqrt(-5)]", -180, 1, [(0, 3, 5, 1), (3, 3, 5, 2), (0, 3, 5, 5), (9, 3, 5, 7)]),
        row("Z[sqrt(-30)]", -120, 1, [(0, 1, 30, 1), (0, 1, 30, 2), (0, 1, 30, 3), (0, 1, 30, 5)]),
        row("Z[(1+sqrt(-55))/2]", -55, 1, [(1, 1, 55, 2), (1, 1, 55, 4), (-1, 1, 55, 4), (5, 1, 55, 10)]),
        row("Z[sqrt(-70)]", -280, 1, [(0, 1, 70, 1), (0, 1, 70, 2), (0, 1, 70, 5), (0, 1, 70, 7)]),
        row("Z[sqrt(-10)]", -40, 2, [(0, 1, 10, 1), (0, 1, 10, 2)]),
        row("Z[2sqrt(-10)]", -160, 2, [(0, 2, 10, 1), (0, 2, 10, 5), (4, 2, 10, 7), (2, 2, 10, 11)]),
        row("Z[(1+sqrt(-15))/2]", -15, 2, [(1, 1, 15, 2), (1, 1, 15, 4)]),
        row("Z[sqrt(-15)]", -60, 2, [(0, 1, 15, 1), (0, 1, 15, 3)]),
        row("Z[(1+sqrt(-35))/2]", -35, 2, [(1, 1, 35, 2), (5, 1, 35, 6)]),
        row("Z[sqrt(-65)]", -260, 2, [(0, 1, 65, 1), (1, 1, 65, 2), (1, 1, 65, 3), (-1, 1, 65, 3),
                                      (0, 1, 65, 5), (1, 1, 65, 6), (-1, 1, 65, 6), (5, 1, 65, 10)]),
    )


#: Extra discriminants checked for p = 7 and p = 13 (case 1 and case 2 each).
EXTRA_DISCRIMINANTS = {
    7: ((-28, 1), (-84, 2)),
    13: ((-52, 1), (-104, 2)),
}


@dataclass(frozen=True)
class CrosscheckResult:
    row: TableRow
    class_number_ok: bool
    polynomial_ok: bool

    @property
    def passed(self) -> bool:
        return self.class_number_ok and self.polynomial_ok


def table_crosscheck(
    row: TableRow,
    precision: int | None = None,
    cache: ClassPolyCache | None = None,
) -> CrosscheckResult:
    """Row length equals h(D) and the row's tau-polynomial equals H_D."""
    H = class_polynomial(row.discriminant, precision, cache)
    length_ok = len(row.taus) == H.degree
    if not length_ok:
        return CrosscheckResult(row, False, False)
    prec = precision if precision is not None else default_precision(row.discriminant)
    row_coeffs, _, _ = polynomial_from_taus(row.taus, prec)
    return CrosscheckResult(row, True, row_coeffs == H.coefficients)

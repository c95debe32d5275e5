"""Class polynomials of imaginary quadratic orders and p-adic placement checks.

Roots of class polynomials are eta quotients j = (x + 256)^3 / x^2 with
x = (eta(tau) / eta(2 tau))^24, each evaluated once as a midpoint-radius ball
(mpmath midpoints, upward-rounded libmp radii, q enclosed by mpmath.iv and
the series tail added as a radius).  The balls are expanded into the monic
polynomial prod (X - j), which is accepted only when every coefficient ball
lies within 1e-6 of one integer, so the rounding is certified by one
enclosure, at a starting precision from an a-priori bound on the
coefficients (Enge, Math. Comp. 78 (2009)).  The p-adic
placement conjectures are then certified per root, in pure integer arithmetic,
through the Newton polygon of G(w) = Res_j(H(j), w - ((j-c)^e -/+ m)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from mpmath import iv, mp, mpc, mpf
from mpmath.libmp import (
    from_int,
    fzero,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
)

from .exactmath import INF, characteristic_polynomial, newton_polygon, univariate_mul, val_rat

SERIES_GUARD_BITS = 64
PRECISION_GUARD_BITS = 32
ROUNDING_TOLERANCE = 1e-6
MAX_PRECISION_DOUBLINGS = 3
RADIUS_BITS = 30


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant() >= 0:
            raise ValueError("form must be positive definite")

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

    def reduced(self) -> "QuadForm":
        """The SL2(Z)-equivalent reduced form: b into (-a, a] (tau -> tau + k), then
        (a, b, c) -> (c, -b, a) (tau -> -1/tau) while a > c or (a = c and b < 0)."""
        D, a, b = self.discriminant(), self.a, self.b
        while True:
            b = a - (a - b) % (2 * a)
            c = (b * b - D) // (4 * a)
            if a < c or (a == c and b >= 0):
                return QuadForm(a, b, c)
            a, b = c, -b


class Tau(NamedTuple):
    """The upper-half-plane point (re_num + im_num * sqrt(-n)) / den."""

    re_num: int
    im_num: int
    n: int
    den: int

    def imag_float(self) -> float:
        return self.im_num * math.sqrt(self.n) / self.den

    def form(self) -> QuadForm:
        """The primitive form (a, b, c) with a tau^2 + b tau + c = 0 and a > 0."""
        r, m, d = self.re_num, self.im_num, self.den
        if m <= 0 or d <= 0:
            raise ValueError(f"{self} is not in the upper half-plane")
        abc = (d * d, -2 * r * d, r * r + m * m * self.n)
        return QuadForm(*(x // math.gcd(*abc) for x in abc))


def reduced_forms(discriminant: int) -> list[QuadForm]:
    """All primitive reduced forms of the given negative discriminant."""
    D = discriminant
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a valid imaginary quadratic discriminant")
    forms = []
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(1 - a, a + 1):
            if (b * b - D) % (4 * a) == 0:
                form = QuadForm(a, b, (b * b - D) // (4 * a))
                if form.is_reduced() and form.is_primitive():
                    forms.append(form)
    return sorted(forms)


def class_number(discriminant: int) -> int:
    return len(reduced_forms(discriminant))


# -- ball arithmetic --------------------------------------------------------
#
# A Ball is the disk |z - mid| <= rad (midpoint-radius arithmetic, as in
# Johansson's Arb, IEEE Trans. Comput. 66 (2017)).  The midpoint is a raw
# mpmath complex, a pair of libmp (sign, man, exp, bc) tuples, rounded to
# nearest at the working precision w = mp.prec.  The radius is a raw mpf of
# RADIUS_BITS bits rounded upward; its exponent is a Python int, so it never
# underflows to 0 or overflows.  Magnitudes are read off the midpoint's
# exponents and bit counts (a part is below 2^(exp + bc)), without float().
# Every operation adds to the radius the propagated input radii and a bound on
# the rounding of its midpoint, so the result contains every value the
# operation takes on points of its input balls.

_ZERO_EXPONENT = -(1 << 40)  # stands for log2|0|: 2^_ZERO_EXPONENT still bounds 0


def _top_exponent(z) -> int:
    """t with 2^(t-1) <= max(|Re z|, |Im z|) < 2^t, so 2^(t-1) <= |z| < 2^(t+1),
    for a raw complex z; _ZERO_EXPONENT when z = 0."""
    (_, m1, e1, b1), (_, m2, e2, b2) = z
    return max(e1 + b1 if m1 else _ZERO_EXPONENT, e2 + b2 if m2 else _ZERO_EXPONENT)


def _magnitude(z) -> int:
    """k with |z| <= 2^k, for a raw complex z."""
    return _top_exponent(z) + 1


def _pow2(k: int):
    return (0, 1, k, 1)


def _scaled(radius, k: int):
    """radius * 2^k, exactly."""
    sign, man, exp, bc = radius
    return (sign, man, exp + k, bc) if man else radius


def _up(*radii):
    """An upper bound on the sum of nonnegative raw mpf values."""
    total = radii[0]
    for radius in radii[1:]:
        total = mpf_add(total, radius, RADIUS_BITS, round_ceiling)
    return total


class Ball:
    """The complex disk |z - mid| <= rad; see the comment above."""

    __slots__ = ("_mid", "_rad")

    def __init__(self, mid, rad=fzero):
        self._mid, self._rad = mid, rad

    @classmethod
    def exact(cls, n: int) -> "Ball":
        return cls((from_int(n), fzero))

    @classmethod
    def from_interval(cls, z) -> "Ball":
        """The ball around the box of a complex mpmath.iv interval: the midpoint
        is exact, the radius the sum of the two widths."""
        (re_lo, re_hi), (im_lo, im_hi) = z._mpci_
        mid = (mpf_shift(mpf_add(re_lo, re_hi), -1), mpf_shift(mpf_add(im_lo, im_hi), -1))
        widths = (mpf_sub(re_hi, re_lo, RADIUS_BITS, round_ceiling),
                  mpf_sub(im_hi, im_lo, RADIUS_BITS, round_ceiling))
        return cls(mid, _up(*widths))

    @property
    def mid(self) -> mpc:
        return mp.make_mpc(self._mid)

    @property
    def rad(self) -> mpf:
        return mp.make_mpf(self._rad)

    def widened(self, radius) -> "Ball":
        return Ball(self._mid, _up(self._rad, radius))

    def __add__(self, other) -> "Ball":
        other = _as_ball(other)
        mid = mpc_add(self._mid, other._mid, mp.prec, round_nearest)
        # the exact sum is rounded once, so the rounding is below 2^-w |sum|
        return Ball(mid, _up(self._rad, other._rad, _pow2(_magnitude(mid) - mp.prec)))

    def __sub__(self, other) -> "Ball":
        other = _as_ball(other)
        mid = mpc_sub(self._mid, other._mid, mp.prec, round_nearest)
        return Ball(mid, _up(self._rad, other._rad, _pow2(_magnitude(mid) - mp.prec)))

    def __mul__(self, other) -> "Ball":
        other = _as_ball(other)
        a, b = self._mid, other._mid
        ka, kb = _magnitude(a), _magnitude(b)
        # |xy - ab| <= |a| rb + |b| ra + ra rb, and rounding ab costs at most 2^-w |a| |b|
        rad = _up(
            _scaled(other._rad, ka),
            _scaled(self._rad, kb),
            mpf_mul(self._rad, other._rad, RADIUS_BITS, round_ceiling),
            _pow2(ka + kb - mp.prec),
        )
        return Ball(mpc_mul(a, b, mp.prec, round_nearest), rad)

    def __truediv__(self, other) -> "Ball":
        other = _as_ball(other)
        a, b = self._mid, other._mid
        top = _top_exponent(b)
        ka, kb, low = _magnitude(a), top + 1, top - 1  # |b| >= 2^low
        gap = mpf_sub(_pow2(low), other._rad, RADIUS_BITS, round_floor)  # <= |b| - rb
        if top == _ZERO_EXPONENT or gap[0] or not gap[1]:
            raise ZeroDivisionError("ball division by a ball that contains 0")
        # |x/y - a/b| <= (ra |b| + |a| rb) / (|b| (|b| - rb)), and rounding a/b
        # costs at most 2^(1-w) |a| / |b|
        spread = _up(_scaled(self._rad, kb), _scaled(other._rad, ka))
        rad = _up(
            mpf_div(spread, _scaled(gap, low), RADIUS_BITS, round_ceiling),
            _pow2(ka - low + 1 - mp.prec),
        )
        return Ball(mpc_div(a, b, mp.prec, round_nearest), rad)

    def integer_distance(self) -> tuple[int, mpf]:
        """The integer n nearest the midpoint, and an upper bound on both
        |Re z - n| and |Im z| for every z in the ball."""
        re, im = self._mid
        n = to_int(re, round_nearest)
        offset = mpf_abs(mpf_sub(re, from_int(n)))  # exact
        return n, mp.make_mpf(_up(self._rad, offset, mpf_abs(im)))


def _as_ball(value) -> Ball:
    return value if isinstance(value, Ball) else Ball.exact(value)


# -- eta quotient -----------------------------------------------------------


def _series_length(tau: Tau, precision: int) -> int:
    """The largest exponent N kept in the pentagonal series: N log2|1/q| <= precision + 64."""
    length = int((precision + SERIES_GUARD_BITS) * math.log(2) / (2 * math.pi * tau.imag_float()))
    if length > 2_000_000:
        raise ValueError("truncation bound overflow: tau too close to the real line")
    return length


def _q_and_tail(tau: Tau, length: int) -> tuple[Ball, tuple]:
    """A ball around q = exp(2 pi i tau), enclosed by mpmath.iv from the exact
    tau, and an upper bound on sum_{e > N} |q|^e = |q|^(N+1) / (1 - |q|)."""
    saved = iv.prec
    try:
        iv.prec = mp.prec
        two_pi_im = 2 * iv.pi * tau.im_num * iv.sqrt(tau.n) / tau.den
        q = iv.exp(iv.mpc(-two_pi_im, 2 * iv.pi * tau.re_num / tau.den))
        iv.prec = RADIUS_BITS
        q_abs = iv.exp(-2 * iv.pi * tau.im_num * iv.sqrt(tau.n) / tau.den)
        tail = q_abs ** (length + 1) / (1 - q_abs)
    finally:
        iv.prec = saved
    return Ball.from_interval(q), tail._mpi_[1]


def j_tau(tau: Tau, precision: int) -> Ball:
    """A ball around j(tau) = (x + 256)^3 / x^2, x = (eta(tau) / eta(2 tau))^24
    = (P(q) / P(q^2))^24 / q, computed at precision + 64 bits.

    P(q) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) is Euler's
    pentagonal series, cut to the terms q^e with e <= N, N log2|1/q| <=
    precision + 64.  The dropped tail of P(q), and that of P(q^2), is at most
    sum_{e > N} |q|^e = |q|^(N+1) / (1 - |q|), below 1.01 * 2^-(precision + 64)
    for reduced tau (|q| < 0.0044); it is added to both sums as a radius.  Every
    other step is a ball operation, so the ball contains j(tau).  The 64 guard
    bits keep the radius below 2^-precision |j(tau)| for reduced tau.
    """
    if tau.im_num <= 0 or tau.den <= 0 or tau.n <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    length = _series_length(tau, precision)
    with mp.workprec(precision + SERIES_GUARD_BITS):
        q, tail = _q_and_tail(tau, length)
        p_q = p_q2 = Ball.exact(1)
        term, q_k, k, sign = q, q, 1, -1  # term = q^(k(3k-1)/2)
        while k * (3 * k - 1) // 2 <= length:
            for exponent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if exponent <= length:
                    p_q = p_q + term if sign > 0 else p_q - term
                if 2 * exponent <= length:
                    square = term * term  # (q^2)^exponent
                    p_q2 = p_q2 + square if sign > 0 else p_q2 - square
                term = term * q_k
            q_k = q_k * q
            term = term * q_k  # q^((k+1)(3k+2)/2)
            k, sign = k + 1, -sign
        x = p_q.widened(tail) / p_q2.widened(tail)
        for _ in range(3):  # (P(q) / P(q^2))^8 by three squarings
            x = x * x
        x = x * x * x / q
        y = x + 256
        return y * y * y / (x * x)


# -- class polynomials ------------------------------------------------------


class ClassPolynomial(NamedTuple):
    discriminant: int
    coefficients: tuple[int, ...]  # ascending, constant term first, monic
    precision_used: int
    max_rounding_error: mpf  # certified bound on |coefficient - integer|

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


class ClassPolyCache:
    """Plain-text cache: one record per line, ``D h precision c_0 ... c_h``.

    Append-only; the last record for a discriminant wins.  A record is never
    a result: ``class_polynomial`` builds H_D and compares it with the last
    record, appending the build when they differ.  A store is one
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


def start_precision(discriminant: int) -> int:
    """The starting precision of a build of H_D: B + PRECISION_GUARD_BITS, where
    B = sum over the reduced forms (a, b, c) of log2(1 + e^(pi sqrt|D| / a) + 2079)
    bounds log2 of every coefficient of H_D.  For reduced tau,
    |j(tau)| <= e^(2 pi Im tau) + 2079 (Enge, Math. Comp. 78 (2009)), here
    Im tau = sqrt|D| / 2a, and each coefficient of prod (X - j) is at most
    prod (1 + |j|)."""
    root = math.sqrt(-discriminant)
    bits = 0.0
    for form in reduced_forms(discriminant):
        exponent = math.pi * root / form.a  # log2(1 + e^x + 2079), without overflow
        bits += exponent / math.log(2) + math.log2(1 + 2080 * math.exp(-exponent))
    return math.ceil(bits) + PRECISION_GUARD_BITS


def expand_product(roots: Sequence[Ball]) -> list[Ball]:
    """Balls around the coefficients of prod (X - r) over the roots, ascending."""
    coeffs = [Ball.exact(1)]
    for root in roots:
        coeffs = [Ball.exact(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] = coeffs[k] - root * coeffs[k + 1]
    return coeffs


def polynomial_from_taus(
    taus: Sequence[Tau], precision: int
) -> tuple[tuple[int, ...], int, mpf]:
    """Monic integer polynomial with roots j(tau), from one ball build.

    The coefficients of prod (X - j(tau)) are expanded in balls at
    precision + 64 bits.  The build is accepted when every coefficient ball
    lies within ROUNDING_TOLERANCE of one integer in the real direction and of
    0 in the imaginary one: then every true coefficient lies within the
    returned error of the returned integer, and equals it when the product is
    known to be integral (the taus of the reduced forms of D give H_D).
    Otherwise the precision is doubled, at most MAX_PRECISION_DOUBLINGS times.
    """
    for _ in range(MAX_PRECISION_DOUBLINGS + 1):
        with mp.workprec(precision + SERIES_GUARD_BITS):
            coeffs = expand_product([j_tau(tau, precision) for tau in taus])
        rounded = [coeff.integer_distance() for coeff in coeffs]
        error = max(distance for _, distance in rounded)
        if error < ROUNDING_TOLERANCE:
            return tuple(n for n, _ in rounded), precision, error
        precision *= 2
    raise ArithmeticError(
        "coefficient balls are not within 1e-6 of integers after precision escalation"
    )


def class_polynomial(discriminant: int, cache: ClassPolyCache | None = None) -> ClassPolynomial:
    """H_D from one certified build started at ``start_precision(D)``.  A
    cache never supplies the result: the build is appended to it when it
    holds no record for D or a different one, so its last record for D is
    always the certified one."""
    taus = [form.tau() for form in reduced_forms(discriminant)]
    coeffs, used, error = polynomial_from_taus(taus, start_precision(discriminant))
    poly = ClassPolynomial(discriminant, coeffs, used, error)
    if cache is not None:
        record = cache.load().get(discriminant)
        if record is None or record[1] != coeffs:
            cache.store(poly)
    return poly


# -- p-adic congruence placement --------------------------------------------


class CongruenceSpec(NamedTuple):
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


class CongruenceResult(NamedTuple):
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


class TableRow(NamedTuple):
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


#: Extra discriminants checked for p = 7 and p = 13, one of case 1 and one
#: of case 2 each.
EXTRA_DISCRIMINANTS = {7: (-28, -84), 13: (-52, -104)}


def table_crosscheck(row: TableRow) -> bool:
    """The row's tau-polynomial prod (X - j(tau)) equals H_D, decided exactly.

    j is injective on SL2(Z)\\H and H_D is squarefree with one root per class
    of primitive forms of discriminant D, so the two polynomials agree exactly
    when the row's tau values reduce to the forms of ``reduced_forms(D)``, each
    once.  No j-value, class polynomial or floating point is involved.
    """
    return sorted(t.form().reduced() for t in row.taus) == reduced_forms(row.discriminant)

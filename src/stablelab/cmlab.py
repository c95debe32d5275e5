"""Class polynomials of imaginary quadratic orders and p-adic placement checks.

Roots of class polynomials are eta quotients j = (x + 256)^3 / x^2 with
x = (eta(tau) / eta(2 tau))^24, each evaluated once as a midpoint-radius ball
of fixed-point Gaussian integers (q and 1/q enclosed by exp balls from the
exact tau, the series tail added as a radius), so the enclosure uses no float.
The balls are expanded into the monic polynomial prod (X - j), which is
accepted only when every coefficient ball lies within 1e-6 of one integer, so
the rounding is certified by one enclosure, at a starting precision from an
a-priori bound on the coefficients (Enge, Math. Comp. 78 (2009)).  The p-adic
placement conjectures are then certified per root, in pure integer arithmetic,
through the Newton polygon of G(w) = Res_j(H(j), w - ((j-c)^e -/+ m)).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import CM_CONGRUENCES, CertificateError, divides_once, legendre_symbol
from .exactmath import INF, characteristic_polynomial, root_valuation_multiset, univariate_mul
from .exactmath import newton_polygon  # noqa: F401  perfbench's tracer test reads it here

SERIES_GUARD_BITS = 64
PRECISION_GUARD_BITS = 32
ROUNDING_TOLERANCE = Fraction(1, 10**6)
MAX_PRECISION_DOUBLINGS = 3


class QuadForm(NamedTuple("QuadForm", [("a", int), ("b", int), ("c", int)])):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        form = super().__new__(cls, a, b, c)
        if a <= 0 or form.discriminant() >= 0:
            raise ValueError("form must be positive definite")
        return form

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        """A form is reduced when reduction leaves it as it is."""
        return self.reduced() == self

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


# -- ball arithmetic --------------------------------------------------------
#
# A Ball is the complex disk |z - (re + im i) 2^-bits| <= rad 2^-bits: a
# Gaussian-integer midpoint and an integer radius at the fixed scale 2^-bits
# (midpoint-radius arithmetic, as in Johansson's Arb, IEEE Trans. Comput. 66
# (2017), in Python integers).  Sums and integer multiples are exact.  A
# product or quotient floors both parts of its midpoint, an error below
# sqrt(2) units of 2^-bits (ulps), so it adds 2 ulps and the propagated input
# radii to the radius, with |re| + |im| (at most sqrt(2) |mid|) bounding the
# midpoint.  Every operation therefore contains every value it takes on
# points of its input balls.


def _ceil_shift(n: int, bits: int) -> int:
    """ceil(n / 2^bits)."""
    return -(-n >> bits)


class Ball:
    """The complex disk |z - (re + im i) 2^-bits| <= rad 2^-bits; see above."""

    __slots__ = ("re", "im", "rad", "bits")

    def __init__(self, re: int, im: int, rad: int, bits: int):
        self.re, self.im, self.rad, self.bits = re, im, rad, bits

    @classmethod
    def exact(cls, n: int, bits: int) -> "Ball":
        return cls(n << bits, 0, 0, bits)

    def magnitude(self) -> int:
        """|re| + |im|, at least 2^bits |mid|."""
        return abs(self.re) + abs(self.im)

    def widened(self, radius: int) -> "Ball":
        return Ball(self.re, self.im, self.rad + radius, self.bits)

    def _coerce(self, other) -> "Ball":
        if isinstance(other, int):
            return Ball.exact(other, self.bits)
        if other.bits != self.bits:
            raise ValueError("balls at different scales")
        return other

    def __neg__(self) -> "Ball":
        return Ball(-self.re, -self.im, self.rad, self.bits)

    def __add__(self, other) -> "Ball":
        other = self._coerce(other)
        return Ball(self.re + other.re, self.im + other.im, self.rad + other.rad, self.bits)

    def __sub__(self, other) -> "Ball":
        return self + -self._coerce(other)

    def __mul__(self, other) -> "Ball":
        if isinstance(other, int):
            return Ball(self.re * other, self.im * other, self.rad * abs(other), self.bits)
        a, b, w = self, self._coerce(other), self.bits
        # |xy - ab| <= |a| r_b + |b| r_a + r_a r_b
        spread = a.magnitude() * b.rad + b.magnitude() * a.rad + a.rad * b.rad
        return Ball(
            (a.re * b.re - a.im * b.im) >> w,
            (a.re * b.im + a.im * b.re) >> w,
            _ceil_shift(spread, w) + 2,
            w,
        )

    def __truediv__(self, other) -> "Ball":
        if isinstance(other, int):
            rad = -(-self.rad // abs(other)) + 2
            return Ball(self.re // other, self.im // other, rad, self.bits)
        a, b, w = self, self._coerce(other), self.bits
        norm = b.re * b.re + b.im * b.im
        low = math.isqrt(norm)  # 2^-w low <= |b|
        if low <= b.rad:
            raise ZeroDivisionError("ball division by a ball that contains 0")
        # |x/y - a/b| <= (r_a |b| + |a| r_b) / (|b| (|b| - r_b)); a/b = a conj(b) / |b|^2
        spread = (a.rad * b.magnitude() + a.magnitude() * b.rad) << w
        return Ball(
            ((a.re * b.re + a.im * b.im) << w) // norm,
            ((a.im * b.re - a.re * b.im) << w) // norm,
            -(-spread // (low * (low - b.rad))) + 2,
            w,
        )

    def at_scale(self, bits: int) -> "Ball":
        """The ball at the coarser scale 2^-bits: both parts floored, 2 ulps added."""
        shift = self.bits - bits
        return Ball(self.re >> shift, self.im >> shift, _ceil_shift(self.rad, shift) + 2, bits)

    def integer_distance(self) -> tuple[int, Fraction]:
        """The integer n nearest the midpoint, and an exact upper bound on both
        |Re z - n| and |Im z| for every z in the ball."""
        w = self.bits
        n = (self.re + (1 << w >> 1)) >> w
        return n, Fraction(self.rad + abs(self.re - (n << w)) + abs(self.im), 1 << w)


def _pi(bits: int) -> Ball:
    """A ball around pi by Machin's pi = 16 arctan(1/5) - 4 arctan(1/239).

    arctan(1/x) = sum_k (-1)^k / ((2k+1) x^(2k+1)) is summed in integers at
    `guard` extra bits until x^-(2k+1) floors to 0.  Each floored power is
    below its true value by less than 2 ulps and each term by less than 3, and
    the alternating tail is below 2, so K terms err by less than 3K + 2.
    """
    guard = bits.bit_length() + 8
    total = error = 0
    for weight, x in ((16, 5), (-4, 239)):
        # power = floor(2^(bits + guard) / x^(2k+1)), floored step by step
        power, k, sign = (1 << (bits + guard)) // x, 0, weight
        while power:
            total += sign * (power // (2 * k + 1))
            power //= x * x
            k, sign = k + 1, -sign
        error += abs(weight) * (3 * k + 2)
    return Ball(total >> guard, 0, _ceil_shift(error, guard) + 1, bits)


def _exp_pair(w: Ball, squarings: int) -> tuple[Ball, Ball]:
    """Balls around exp(2^squarings w) and exp(-2^squarings w), for |w| <= 1/2.

    The Taylor series of exp(w) is cut after the first term whose midpoint is
    below 4 ulps; the dropped tail sum_{i>k} |w|^i / i! is at most
    |w|^k / (3 k!), below that term's bound |mid| + rad.  exp(-w) is its
    reciprocal, a quotient by a ball near 1 that keeps the relative precision,
    and each is then squared ``squarings`` times.
    """
    if w.magnitude() + w.rad > 1 << (w.bits - 1):
        raise ValueError("exp series argument must satisfy |w| <= 1/2")
    total = term = Ball.exact(1, w.bits)
    k = 0
    while term.magnitude() > 4:
        k += 1
        term = term * w / k
        total = total + term
    total = total.widened(term.magnitude() + term.rad)
    pair = [total, Ball.exact(1, w.bits) / total]
    for _ in range(squarings):
        pair = [ball * ball for ball in pair]
    return pair[0], pair[1]


def _q_pair(tau: Tau, bits: int) -> tuple[Ball, Ball]:
    """Balls around q = exp(2 pi i tau) and 1/q = exp(-2 pi i tau), each squared
    up from its own ball near 1, so each keeps its relative precision.

    z = 2 pi i tau = 2 pi (-m sqrt(n) + r i) / d is built from pi and
    floor(sqrt(n) 2^bits).  Read at the scale 2^-(bits + s), the same integers
    are z / 2^s, with s >= sqrt(bits) and 2^s >= 4 |z|, so |z / 2^s| <= 1/4,
    and the s extra bits of scale pay for the s bits the squarings cost.
    """
    r, m, n, d = tau
    s = max(math.isqrt(bits), (7 * (abs(r) + m * (math.isqrt(n) + 1)) // d + 1).bit_length() + 2)
    i_tau = Ball(-m * math.isqrt(n << 2 * bits), r << bits, m, bits) / d
    z = i_tau * (_pi(bits) * 2)
    w = Ball(z.re, z.im, z.rad, bits + s)
    q, q_inverse = _exp_pair(w, s)
    return q.at_scale(bits), q_inverse.at_scale(bits)


def _tail_bound(q: Ball, length: int) -> int:
    """An upper bound, in ulps of q, on sum_{e > N} |q|^e = |q|^(N+1) / (1 - |q|),
    from upward-rounded products and |q| <= 2^-bits (isqrt(re^2 + im^2) + 1 + rad):
    the looser |re| + |im| could cost N/2 bits after the power."""
    bits, one = q.bits, 1 << q.bits
    bound = math.isqrt(q.re * q.re + q.im * q.im) + 1 + q.rad
    if bound >= one:
        raise ValueError("|q| may reach 1: tau too close to the real line")
    power, base, exponent = one, bound, length + 1
    while exponent:
        if exponent & 1:
            power = _ceil_shift(power * base, bits)
        base = _ceil_shift(base * base, bits)
        exponent >>= 1
    return -(-(power << bits) // (one - bound))


# -- eta quotient -----------------------------------------------------------


def _series_length(tau: Tau, precision: int) -> int:
    """The largest exponent N kept in the pentagonal series: N log2|1/q| <= precision + 64."""
    length = int((precision + SERIES_GUARD_BITS) * math.log(2) / (2 * math.pi * tau.imag_float()))
    if length > 2_000_000:
        raise ValueError("truncation bound overflow: tau too close to the real line")
    return length


def j_tau(tau: Tau, precision: int) -> Ball:
    """A ball around j(tau) = (x + 256)^3 / x^2, x = (eta(tau) / eta(2 tau))^24
    = (P(q) / P(q^2))^24 / q, at the scale 2^-(precision + 64).

    P(q) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) is Euler's
    pentagonal series, cut to the terms q^e with e <= N, N log2|1/q| <=
    precision + 64.  The dropped tail of P(q), and that of P(q^2), is at most
    sum_{e > N} |q|^e = |q|^(N+1) / (1 - |q|), about 2^-(precision + 64) for
    reduced tau (|q| < 0.0044); it is added to both sums as a radius.  1/q is
    its own ball, so x keeps the relative precision of 1/q even when |q| is
    tiny.  Every other step is a ball operation, so the ball contains j(tau).
    The 64 guard bits keep the radius below 2^-precision |j(tau)| for reduced
    tau.
    """
    if tau.im_num <= 0 or tau.den <= 0 or tau.n <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    length = _series_length(tau, precision)
    bits = precision + SERIES_GUARD_BITS
    q, q_inverse = _q_pair(tau, bits)
    tail = _tail_bound(q, length)
    p_q = p_q2 = Ball.exact(1, bits)
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
    x = x * x * x * q_inverse
    y = x + 256
    return y * y * y / (x * x)


# -- class polynomials ------------------------------------------------------


class ClassPolynomial(NamedTuple):
    discriminant: int
    coefficients: tuple[int, ...]  # ascending, constant term first, monic
    precision_used: int
    max_rounding_error: Fraction  # certified bound on |coefficient - integer|

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
    bits = roots[0].bits
    coeffs = [Ball.exact(1, bits)]
    for root in roots:
        coeffs = [Ball.exact(0, bits)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] = coeffs[k] - root * coeffs[k + 1]
    return coeffs


def polynomial_from_taus(
    taus: Sequence[Tau], precision: int
) -> tuple[tuple[int, ...], int, Fraction]:
    """Monic integer polynomial with roots j(tau), from one ball build.

    The coefficients of prod (X - j(tau)) are expanded in balls at the scale
    2^-(precision + 64).  The build is accepted when every coefficient ball
    lies within ROUNDING_TOLERANCE of one integer in the real direction and of
    0 in the imaginary one: then every true coefficient lies within the
    returned error of the returned integer, and equals it when the product is
    known to be integral (the taus of the reduced forms of D give H_D).
    Otherwise the precision is doubled, at most MAX_PRECISION_DOUBLINGS times,
    before the build raises CertificateError.
    """
    for _ in range(MAX_PRECISION_DOUBLINGS + 1):
        coeffs = expand_product([j_tau(tau, precision) for tau in taus])
        rounded = [coeff.integer_distance() for coeff in coeffs]
        error = max(distance for _, distance in rounded)
        if error < ROUNDING_TOLERANCE:
            return tuple(n for n, _ in rounded), precision, error
        precision *= 2
    raise CertificateError(
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
    """Per-root requirement v_p((j - center)^exponent sign p^bound) > bound."""

    p: int
    center: int
    exponent: int
    sign: str  # "-" or "+"
    bound: int

    @property
    def prime_power(self) -> int:
        return self.p**self.bound


def congruence_case(discriminant: int, p: int) -> int:
    """1 if End tensor Z_p is Z_p[sqrt(-p)], 2 if Z_p[sqrt(-p*nonresidue)].

    Requires p to divide the discriminant exactly once (the conjectures'
    hypothesis); the case is decided by whether -discriminant/p is a square
    mod p.
    """
    if discriminant >= 0 or not divides_once(p, discriminant):
        raise ValueError(f"p = {p} must divide the discriminant {discriminant} exactly once")
    unit = (-(discriminant // p)) % p
    return 1 if legendre_symbol(unit, p) == 1 else 2


def standard_spec(p: int, sign: str) -> CongruenceSpec:
    if p not in CM_CONGRUENCES:
        raise ValueError(f"no congruence data for p = {p}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    _, center, exponent, bound = CM_CONGRUENCES[p]
    return CongruenceSpec(p, center, exponent, sign, bound)


class CongruenceResult(NamedTuple):
    passed: bool
    min_root_valuation: Fraction | float  # INF when every root is exact


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

    minimum = min((v for v, _ in root_valuation_multiset(aux, spec.p)), default=INF)
    return CongruenceResult(passed=bool(minimum > spec.bound), min_root_valuation=minimum)


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


def table_crosscheck(row: TableRow) -> None:
    """The row's tau-polynomial prod (X - j(tau)) equals H_D, decided exactly.

    j is injective on SL2(Z)\\H and H_D is squarefree with one root per class
    of primitive forms of discriminant D, so the two agree exactly when the
    row's h(D) tau values reduce to distinct forms of discriminant D, which
    are then ``reduced_forms(D)``.  No j-value, class polynomial or floating
    point is involved.  A wrong count, a form of another discriminant or a
    class hit twice raises CertificateError.
    """
    D, h = row.discriminant, len(reduced_forms(row.discriminant))
    if len(row.taus) != h:
        raise CertificateError(f"row has {len(row.taus)} tau values but h({D}) = {h}")
    first_tau: dict[QuadForm, Tau] = {}
    for tau in row.taus:
        form = tau.form().reduced()
        if form.discriminant() != D:
            raise CertificateError(f"{tau} gives the form {tuple(form)} of discriminant "
                                   f"{form.discriminant()}, not {D}")
        if form in first_tau:
            raise CertificateError(f"{first_tau[form]} and {tau} reduce to one class {tuple(form)}")
        first_tau[form] = tau

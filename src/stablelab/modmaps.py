"""Moduli-theoretic maps between X0(5^n) levels and their valuation images.

The six classical maps (forgetful and quotient maps pi_1, pi_5 down the
5-power tower plus the Atkin-Lehner involutions w_5, w_25) are transcribed as
exact rational maps.  Circle regions v(coordinate) = lambda are pushed
forward by `dominant_piece`, the one dominance rule, on the valuation pieces
of numerator and denominator: a denominator with no single lowest piece
certifies nothing, and the image valuation is exact when a numerator piece
dominates too, otherwise only a bound (which is how a circle image
degenerates to a disk statement).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import CertificateError, curve125
from .exactmath import (
    Affine,
    SymbolicPolynomial,
    characteristic_polynomial,
    dominant_piece,
    field_valuation,
    pieces_in,
    poly_to_coeffs,
    quotient_on_cell,
    squarefree_part,
    sym,
    symbol_valuations,
    univariate_gcd,
    val_rat,
)

P = 5

t, u = sym("t"), sym("u")


class RationalMap(
    NamedTuple(
        "RationalMap",
        [
            ("name", str),
            ("source_coord", str),
            ("target_coord", str),
            ("numerator", SymbolicPolynomial),
            ("denominator", SymbolicPolynomial),
        ],
    )
):
    __slots__ = ()

    def __new__(cls, name, source_coord, target_coord, numerator, denominator):
        num = poly_to_coeffs(numerator, source_coord)
        den = poly_to_coeffs(denominator, source_coord)
        if all(c == 0 for c in den):
            raise ValueError("denominator is identically zero")
        if len(univariate_gcd(num, den)) != 1:
            raise ValueError(f"map {name} has a common factor")
        return super().__new__(cls, name, source_coord, target_coord, numerator, denominator)

    def degrees(self) -> tuple[int, int]:
        return (
            self.numerator.degree(self.source_coord),
            self.denominator.degree(self.source_coord),
        )

    def evaluate(self, value) -> Fraction:
        point = {self.source_coord: Fraction(value)}
        den = self.denominator.evaluate(point)
        if den == 0:
            raise ZeroDivisionError(f"{self.name} has a pole at {value}")
        return self.numerator.evaluate(point) / den


class ImageCertificate(NamedTuple):
    lower_bound: Fraction
    unique: bool  # exact image; False is a bound only (a tie)


def builtin_maps() -> dict[str, RationalMap]:
    one = SymbolicPolynomial.constant(1)
    pi5_t_factor = u**4 + 5 * u**3 + 15 * u**2 + 25 * u + 25
    return {
        "pi1_j": RationalMap("pi1_j", "t", "j", (t**2 + 2 * 5**3 * t + 5**5) ** 3, t**5),
        "pi5_j": RationalMap("pi5_j", "t", "j", (t**2 + 10 * t + 5) ** 3, t),
        "w5": RationalMap("w5", "t", "t", SymbolicPolynomial.constant(125), t),
        "pi1_t": RationalMap("pi1_t", "u", "t", u**5, pi5_t_factor),
        "pi5_t": RationalMap("pi5_t", "u", "t", u * pi5_t_factor, one),
        "w25": RationalMap("w25", "u", "u", SymbolicPolynomial.constant(5), u),
    }


def image_valuation(rmap: RationalMap, radius) -> ImageCertificate:
    """Image of the circle v(source) = radius under a rational map.

    v(target) = v(numerator) - v(denominator), read off the pieces of each
    at the circle.  The denominator needs a dominant piece there, or its
    lowest monomials could cancel and no bound follows: CertificateError.
    The image is the circle v(target) = lower_bound when a numerator piece
    dominates too; on a numerator tie only v(target) >= lower_bound is
    certified, which is the disk case.
    """
    lam = Fraction(radius)
    num, den = (pieces_in(f, rmap.source_coord, P) for f in (rmap.numerator, rmap.denominator))
    den_piece = dominant_piece(den, lam, lam)
    if den_piece is None:
        raise CertificateError(
            f"the denominator {rmap.denominator} of {rmap.name} has no single lowest "
            f"monomial on v({rmap.source_coord}) = {lam}: a tie certifies no bound"
        )
    lower_bound = min(fn(lam) for fn in num) - den_piece(lam)
    return ImageCertificate(lower_bound, dominant_piece(num, lam, lam) is not None)


def cell_image_valuation(rmap: RationalMap, lo, hi) -> Affine | None:
    """Image of the open cell lo < lambda < hi of circles v(source) = lambda:
    v(target) as an affine function of lambda, or None when the numerator or
    the denominator has no dominant piece on the cell."""
    return quotient_on_cell(rmap.numerator, rmap.denominator, rmap.source_coord, lo, hi, P)


def al_fixed_circle(rmap: RationalMap) -> Fraction:
    """Fixed circle of an involution c/x: the lambda with v(c) - lambda = lambda."""
    if not rmap.numerator.is_constant() or rmap.denominator != sym(rmap.source_coord):
        raise ValueError("map is not of the involution form c/x")
    return Fraction(val_rat(rmap.numerator.constant_value(), P), 2)


def compose(outer: RationalMap, inner: RationalMap) -> tuple[SymbolicPolynomial, SymbolicPolynomial]:
    """Exact rational-function composition outer(inner), homogenized."""
    if inner.target_coord != outer.source_coord:
        raise ValueError("maps do not compose")
    var = outer.source_coord
    num_c = poly_to_coeffs(outer.numerator, var)
    den_c = poly_to_coeffs(outer.denominator, var)
    d = max(len(num_c), len(den_c)) - 1
    a, b = inner.numerator, inner.denominator

    def plug(coeffs):
        out = SymbolicPolynomial.zero()
        for i, c in enumerate(coeffs):
            if c != 0:
                out = out + SymbolicPolynomial.constant(c) * a**i * b ** (d - i)
        return out

    return plug(num_c), plug(den_c)


def involution_identity(rmap: RationalMap) -> None:
    """map(map(x)) == x as an exact rational-function identity."""
    num, den = compose(rmap, rmap)
    if num != den * sym(rmap.source_coord):
        raise CertificateError(
            f"{rmap.name} o {rmap.name} = ({num}) / ({den}), not {rmap.source_coord}"
        )


def ramification_u_polynomial() -> list[int]:
    """Degree-10 integer polynomial satisfied by the u coordinates of the
    ramification points, ascending.

    At a ramification point the fiber equation has the double root
    u = y/(2x), which forces x = 5/u**2 and y = 10/u.  With w = 1/u the
    plus-curve model becomes a polynomial of degree 10 in w, and clearing
    u**10 reverses its coefficients.
    """
    w = sym("w")
    f_w = curve125.F_PLUS.substitute("x", 5 * w**2).substitute("y", 10 * w)
    p_ram_w = curve125.integer_coeffs(f_w, "w")
    if len(p_ram_w) != 11:
        raise CertificateError("the ramification u-polynomial must have degree 10")
    return list(reversed(p_ram_w))


def ramification_image_polynomial(pi5_t: RationalMap) -> tuple[int, ...]:
    """Eliminant of the composite sending ramification points into X0(5),
    as ascending integer coefficients.

    T(t) = Res_u(p_ram_u, t - pi5_t(u)), the characteristic polynomial of
    the polynomial map pi5_t (table 2's u -> t) over the roots of p_ram_u.
    The certificate is that T has even degree and its squarefree part is an
    integer multiple of t**2 - 125.
    """
    numerator = poly_to_coeffs(pi5_t.numerator, "u")
    ints = characteristic_polynomial(numerator, ramification_u_polynomial())
    quotient = squarefree_part(ints)
    lead = quotient[-1]
    if quotient != [-125 * lead, 0, lead] or len(ints) % 2 == 0:
        raise CertificateError(
            f"eliminant of degree {len(ints) - 1} has squarefree part with coefficients "
            f"({', '.join(map(str, quotient))}), not t^2 - 125 up to a factor"
        )
    return ints


def cm_disk_identities() -> Fraction:
    """v5(5**5/r**5 - 5**3), certified > 3, so the description of the CM
    residue disks in u matches the one pulled back through r."""
    v_r = symbol_valuations([curve125.R_SYMBOL], P)["r"]
    v = field_valuation(5**5 - 5**3 * curve125.r**5, curve125.R_SYMBOL, P) - 5 * v_r
    if v <= 3:
        raise CertificateError(f"v5(5^5/r^5 - 5^3) = {v}, not > 3")
    return v

"""The too-supersingular disk of X(1) at p = 5, via the family y^2 = x^3 + t*x + 1.

The 5-division polynomial of the family has a parametric Newton polygon in
lambda = v_5(t) whose cell structure changes exactly at lambda = 5/6: below,
the canonical subgroup separates (two x-roots closer to the origin in the
z = x/y chart); above, all twenty-four nonzero 5-torsion points are
equidistant and no canonical subgroup exists.  Since v_5(j) = 3 v_5(t) on the
family, the no-canonical-subgroup disk of X(1) is v_5(j) >= 3 * 5/6 = 5/2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import CertificateError
from .exactmath import (
    ParamPolygon,
    SymbolicPolynomial,
    affine,
    parametric_polygon,
    pieces_in,
    quotient_on_cell,
    sym,
)

P = 5
F = Fraction

x, t = sym("x"), sym("t")


class TorsionProfile(NamedTuple):
    x_root_valuations: tuple[tuple[Fraction, int], ...]
    z_valuations: tuple[tuple[Fraction, int], ...]  # over points, not x-roots

    @property
    def canonical_subgroup(self) -> bool:
        """4 points strictly nearest the origin form, with it, the canonical subgroup."""
        return max(self.z_valuations)[1] == 4


def division_polynomial_5() -> SymbolicPolynomial:
    """psi_5(x) of y^2 = c(x) = x^3 + t*x + 1, a polynomial in x and t.

    One step of psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3 at
    m = 2: with psi_1 = 1, psi_2 = 2y, psi_4 = 4y*f4 and y^2 = c,
    psi_5 = 32 c^2 f4 - psi_3^3.
    """
    c = x**3 + t * x + 1
    psi3 = 3 * x**4 + 6 * t * x**2 + 12 * x - t**2
    f4 = x**6 + 5 * t * x**4 + 20 * x**3 - 5 * t**2 * x**2 - 4 * t * x - 8 - t**3
    return 32 * c**2 * f4 - psi3**3


def torsion_polygon(psi5: SymbolicPolynomial) -> ParamPolygon:
    """Parametric Newton polygon of psi_5 in x over 0 < v_5(t) < 1."""
    pieces = [pieces_in(psi5.coefficient("x", i), "t", P) for i in range(psi5.degree("x") + 1)]
    return parametric_polygon(pieces, (F(0), F(1)))


def torsion_profile(polygon: ParamPolygon, lam) -> TorsionProfile:
    """Valuation profile of the 5-torsion at v_5(t) = lam on `torsion_polygon`;
    a lam outside the polygon's open interval, or at its breakpoint, has no
    cell and raises ValueError."""
    cell = polygon.cell_at(lam)
    x_roots = cell.root_valuations_at(lam)
    z_vals = []
    for v, count in x_roots:
        if v >= 0:
            raise CertificateError("5-torsion x-roots must have negative valuation")
        # z = x/y is the parameter at the origin; v(z) = -v(x)/2 for v(x) < 0
        z_vals.append((-v / 2, 2 * count))
    if sum(n for _, n in z_vals) != 24:
        raise CertificateError("the profile must cover the 24 nonzero 5-torsion points")
    return TorsionProfile(x_roots, tuple(sorted(z_vals)))


def weierstrass_j(a: SymbolicPolynomial, b: SymbolicPolynomial) -> tuple[SymbolicPolynomial, SymbolicPolynomial]:
    """j-invariant of y^2 = x^3 + ax + b as an exact fraction c4^3 / Delta."""
    c4 = -48 * a
    delta = -16 * (4 * a**3 + 27 * b**2)
    # cancel the common -16 so the denominator is the classical 4a^3 + 27b^2
    return c4**3 / -16, delta / -16


def too_ss_threshold(polygon: ParamPolygon) -> Fraction:
    """v_5(j) at the single breakpoint of `torsion_polygon`, where v_5(j) is
    certified as 3 v_5(t) on the polygon's range: 3 * (5/6) = 5/2."""
    num, den = weierstrass_j(t, SymbolicPolynomial.constant(1))
    if num != 6912 * t**3 or den != 4 * t**3 + 27:
        raise CertificateError(f"j(t) = ({num}) / ({den}), not 6912t^3 / (4t^3 + 27)")
    # on 0 < v(t) < 1: 6912 t^3 is the single piece 3 v(t), and the unit 27
    # lies strictly below 4 t^3, so v(j) = 3 v(t) exactly
    image = quotient_on_cell(num, den, "t", polygon.lo, polygon.hi, P)
    if image != affine(0, 3):
        raise CertificateError(
            f"v(j) = 3 v(t) is not certified on {polygon.lo} < v(t) < {polygon.hi}"
        )
    if len(polygon.breakpoints) != 1:
        raise CertificateError(f"the polygon has breakpoints {polygon.breakpoints}, not one")
    return image(polygon.breakpoints[0])

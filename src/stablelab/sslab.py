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

from .exactmath import (
    ParamPolygon,
    SymbolicPolynomial,
    affine,
    min_valuation,
    param_valuations,
    parametric_polygon,
    sym,
)

P = 5
F = Fraction

x, t = sym("x"), sym("t")


class TorsionProfile(NamedTuple):
    x_root_valuations: tuple[tuple[Fraction, int], ...]
    z_valuations: tuple[tuple[Fraction, int], ...]  # over points, not x-roots
    canonical_subgroup: bool


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
    pieces = []
    for i in range(psi5.degree("x") + 1):
        ci = psi5.coefficient("x", i)
        if ci.is_zero():
            pieces.append(None)
        else:
            pieces.append([fn for fn, _ in param_valuations(ci, {}, {"t": 1}, P)])
    return parametric_polygon(pieces, (F(0), F(1)))


def canonical_breakpoint() -> Fraction:
    """The lambda where the slopes lam/10 and (1 - lam)/2 agree: lam = 5/6."""
    return (affine(0, F(1, 10)) - affine(F(1, 2), F(-1, 2))).root()


def torsion_profile(polygon: ParamPolygon, lam) -> TorsionProfile:
    """Valuation profile of the 5-torsion at v_5(t) = lam in (0, 1) on `torsion_polygon`."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    if lam in polygon.breakpoints:
        raise ValueError(f"lambda {lam} is the polygon breakpoint; no open cell")
    cell = polygon.cell_at(lam)
    x_roots = cell.root_valuations_at(lam)
    z_vals = []
    for v, count in x_roots:
        if v >= 0:
            raise AssertionError("5-torsion x-roots must have negative valuation")
        # z = x/y is the parameter at the origin; v(z) = -v(x)/2 for v(x) < 0
        z_vals.append((-v / 2, 2 * count))
    if sum(n for _, n in z_vals) != 24:
        raise AssertionError("the profile must cover the 24 nonzero 5-torsion points")
    return TorsionProfile(
        x_root_valuations=x_roots,
        z_valuations=tuple(sorted(z_vals)),
        canonical_subgroup=lam < canonical_breakpoint(),
    )


class ThresholdCertificate(NamedTuple):
    j_numerator: SymbolicPolynomial
    j_denominator: SymbolicPolynomial
    threshold: Fraction
    status: str


def weierstrass_j(a: SymbolicPolynomial, b: SymbolicPolynomial) -> tuple[SymbolicPolynomial, SymbolicPolynomial]:
    """j-invariant of y^2 = x^3 + ax + b as an exact fraction c4^3 / Delta."""
    c4 = -48 * a
    delta = -16 * (4 * a**3 + 27 * b**2)
    # cancel the common -16 so the denominator is the classical 4a^3 + 27b^2
    minus16 = SymbolicPolynomial.constant(-16)
    return (c4**3).exact_divide(minus16), delta.exact_divide(minus16)


def too_ss_threshold() -> ThresholdCertificate:
    """v_5(j) = 3 v_5(t) on the family, so the threshold is 3 * (5/6) = 5/2."""
    num, den = weierstrass_j(t, SymbolicPolynomial.constant(1))
    expected_num = 6912 * t**3
    expected_den = 4 * t**3 + 27
    # v(num) = 3*lambda with a unique witness; v(den) = 0 with unique witness
    # (27 is a 5-adic unit and 3*lambda > 0 for every lambda > 0)
    num_single = len(num.terms) == 1 and min_valuation(num, {"t": F(0)}, P).value == 0
    den_min = min_valuation(den, {"t": F(1, 100)}, P)
    den_ok = (
        den_min.unique
        and den_min.value == 0
        and all(
            fn.constant >= 0 and fn.slope >= 0
            for fn, _ in param_valuations(den, {}, {"t": 1}, P)
        )
    )
    threshold = 3 * canonical_breakpoint()
    ok = num == expected_num and den == expected_den and num_single and den_ok
    return ThresholdCertificate(num, den, threshold, "pass" if ok else "fail")

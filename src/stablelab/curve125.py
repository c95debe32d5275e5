"""Plane models of X0(125)+ / X0(125) and their exact reduction certificates.

The plus-quotient curve is the 14-term quintic-quartic F_PLUS = f+(x, y) = 0
together with the fiber equation FIBER = x*u**2 - y*u + 5 = 0 that cuts out
the degree-2 extension up to X0(125); TABLE1 is the paper's table of the
shifted model g+(x0, y) = f+(x0 + r, y).  Everything here is certified with
exact rational arithmetic: coefficient tables over Q[r] (r a fixed root of
r^5 + 25r - 25), Newton polygons of the ramification polynomials, pairwise
root-distance multisets, the valuation envelopes behind the annulus
parameterization, and one valuation-part certificate, `verify_reduction`: on
a circle, nothing of a model lies below a level and its terms at that level
are exactly a named equation.  It certifies the approximating equation
x0^5 + 25*x0 = 15*y^2 (eq 3), the good-reduction residue
y1^2 = 2*x1^5 + 2*x1 (eq 4) and the genus-0-component equation (eq 6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import CertificateError
from .exactmath.kernel import INF, Affine, affine, univariate_trim
from .exactmath.poly import SymbolicPolynomial, ValuedSymbol, normal_form, poly_to_coeffs, sym
from .exactmath.polygon import newton_polygon, root_valuation_multiset
from .exactmath.resultant import characteristic_polynomial, difference_root_resultant
from .exactmath.valuation import (
    dominant_piece,
    min_valuation,
    param_valuations,
    symbol_valuations,
    valuation_levels,
)

P = 5
F = Fraction

x, y, u = sym("x"), sym("y"), sym("u")
x0, r = sym("x0"), sym("r")
sqrt15 = sym("sqrt15")

#: r is any root of r^5 + 25r - 25, totally ramified over Q_5
R_SYMBOL = ValuedSymbol("r", F(2, 5), (5, 25 - 25 * r))
SQRT15_SYMBOL = ValuedSymbol("sqrt15", F(1, 2), (2, SymbolicPolynomial.constant(15)))
#: 1/r, read off the rule r^5 -> 25 - 25r: r * (r^4 + 25) = 25
R_INVERSE = (r**4 + 25) / 25

#: f+(x, y), the 14-term quintic-quartic model of X0(125)+
F_PLUS = (
    y**4 - x**5 + 5 * x * y**3 + 15 * x**2 * y**2 + 25 * x**3 * y
    + 25 * x**4 + 5 * y**3 + 5 * x * y**2 - 25 * x**3 + 15 * y**2
    + 25 * x**2 + 25 * y - 25 * x + 25
)
#: the fiber equation x*u^2 - y*u + 5 of the degree-2 cover X0(125) -> X0(125)+
FIBER = x * u**2 - y * u + 5
#: table 1, the published coefficients of g+(x0, y): (x0 exp, y exp) -> Q[r]
TABLE1 = {
    (5, 0): SymbolicPolynomial.constant(-1),
    (4, 0): -5 * r + 25,
    (3, 1): SymbolicPolynomial.constant(25),
    (3, 0): -10 * r**2 + 100 * r - 25,
    (2, 2): SymbolicPolynomial.constant(15),
    (2, 1): 75 * r,
    (2, 0): -10 * r**3 + 150 * r**2 - 75 * r + 25,
    (1, 3): SymbolicPolynomial.constant(5),
    (1, 2): 30 * r + 5,
    (1, 1): 75 * r**2,
    (1, 0): -5 * r**4 + 100 * r**3 - 75 * r**2 + 50 * r - 25,
    (0, 4): SymbolicPolynomial.constant(1),
    (0, 3): 5 * r + 5,
    (0, 2): 15 * r**2 + 5 * r + 15,
    (0, 1): 25 * r**3 + 25,
    (0, 0): 25 * r**4 - 25 * r**3 + 25 * r**2,
}


class RamificationData(NamedTuple):
    p_ram_y: tuple[int, ...]  # ascending coefficients, degree 10
    p_ram_x: tuple[int, ...]
    y_distance_multiset: tuple[tuple[Fraction, int], ...]
    x_distance_multiset: tuple[tuple[Fraction, int], ...]


def build_shifted_model() -> SymbolicPolynomial:
    """g+(x0, y) = f+(x0 + r, y) reduced mod r^5 + 25r - 25 (table 1).

    Every coefficient of x0^i y^j (i <= 5, j <= 4) is compared exactly with
    `TABLE1`; any mismatch raises CertificateError.
    """
    g_plus = normal_form(F_PLUS.substitute("x", x0 + r), [R_SYMBOL])
    zero = SymbolicPolynomial.zero()
    by_x0 = g_plus.as_univariate("x0")
    for i in range(6):
        by_y = by_x0.get(i, zero).as_univariate("y")
        for j in range(5):
            got, want = by_y.get(j, zero), TABLE1.get((i, j), zero)
            if got != want:
                raise CertificateError(
                    f"shifted-model coefficient of x0^{i} y^{j} is {got}, expected {want}"
                )
    return g_plus


def integer_coeffs(f: SymbolicPolynomial, var: str) -> tuple[int, ...]:
    out = []
    for c in poly_to_coeffs(f, var):
        if c.denominator != 1:
            raise CertificateError(f"{var}-coefficient {c} is not an integer")
        out.append(int(c))
    return tuple(out)


def pairwise_distance_valuations(
    coeffs: Sequence[int],
) -> tuple[tuple[Fraction, int], ...]:
    """Multiset of v_5(root_i - root_j), i != j, for a squarefree integer poly.

    The roots of D(z) = Res_y(f(y), f(y+z)) are the ordered differences; the
    deg f differences root_i - root_i are its root 0 of multiplicity deg f,
    and the rest are the distances.  A repeated root raises CertificateError.
    """
    coeffs = univariate_trim(int(c) for c in coeffs)
    *distances, zero = root_valuation_multiset(difference_root_resultant(coeffs), P)
    # roots of multiplicities m_i make D(z) vanish to order sum m_i^2 at 0,
    # which equals deg f = sum m_i exactly when every m_i is 1
    if zero != (INF, len(coeffs) - 1):
        raise CertificateError("polynomial is not squarefree")
    return tuple(distances)


#: Published coefficient valuations of p_ram_y, ascending degree 0..10.
P_RAM_Y_VALUATIONS = (7, 7, 6, 6, 5, 5, 4, 4, 3, INF, 0)


def cluster_sizes(distance_multiset) -> tuple[int, ...]:
    """Cluster sizes forced by a two-valued distance multiset.

    For a multiset {(near, a), (far, b)} with far < near over 10 points, the
    partition into maximal near-clusters must have sum of squares 10 + a; the
    unique integer partition realizing it is returned; CertificateError if
    the multiset forces none or several.
    """
    values = sorted(distance_multiset, key=lambda pair: pair[0])
    if len(values) != 2:
        raise CertificateError("expected exactly two distance values")
    (_, cross_count), (_, near_count) = values
    total_points = 10
    if cross_count + near_count != total_points * (total_points - 1):
        raise CertificateError("multiset does not cover all ordered pairs")
    target = total_points + near_count  # sum of n_i^2 over clusters

    def partitions(n, maximum):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maximum), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    matches = [
        p for p in partitions(total_points, total_points)
        if sum(n * n for n in p) == target
    ]
    if len(matches) != 1:
        raise CertificateError(f"cluster structure ambiguous: {matches}")
    return matches[0]


def ramification_polynomials() -> RamificationData:
    """Degree-10 polynomials satisfied by the y resp. x coordinates of the
    ten ramification points (which satisfy y^2 = 20x), plus their pairwise
    root-distance valuation multisets.  p_ram_x is the characteristic
    polynomial of x = y^2/20 over the roots of p_ram_y."""
    p_ram_y_poly = 20**5 * F_PLUS.substitute("x", (y * y) / 20)
    p_ram_y = integer_coeffs(p_ram_y_poly, "y")
    p_ram_x = characteristic_polynomial([0, 0, F(1, 20)], p_ram_y)
    if len(p_ram_y) != 11 or len(p_ram_x) != 11:
        raise CertificateError("ramification polynomials must have degree 10")
    return RamificationData(
        p_ram_y,
        p_ram_x,
        pairwise_distance_valuations(p_ram_y),
        pairwise_distance_valuations(p_ram_x),
    )


# -- valuation-part certificates: eq 3, eq 4 and eq 6 -------------------------


def verify_reduction(
    f: SymbolicPolynomial,
    assignment: Mapping[str, Fraction],
    level: Fraction,
    expected: SymbolicPolynomial,
) -> Fraction:
    """Certify that no monomial of f lies below valuation `level` at
    `assignment` and that the terms of f at `level` are exactly `expected`;
    return the least valuation above `level` (INF if there is none)."""
    levels = valuation_levels(f, assignment, P)
    below = [mono for v, monos in levels if v < level for mono in monos]
    if below:
        raise CertificateError(f"monomials {below} lie below valuation {level}")
    part = _part_at(f, levels, level)
    if part != expected:
        raise CertificateError(f"the valuation-{level} part is {part}, not {expected}")
    return next((v for v, _ in levels if v > level), INF)


def _part_at(f: SymbolicPolynomial, levels, level) -> SymbolicPolynomial:
    """The terms of f whose monomials `valuation_levels` puts at `level`."""
    return SymbolicPolynomial(
        {mono: f.terms[mono] for v, monos in levels if v == level for mono in monos}
    )


#: the circle of eq 3; r's valuation comes from R_SYMBOL
EQ3_ASSIGNMENT = {"x0": F(1, 2), "y": F(3, 4)}
#: eq 3, x0^5 + 25*x0 = 15*y^2, as the valuation-5/2 part of g+
EQ3 = 15 * y**2 - x0**5 - 25 * x0


def verify_dominance_eq3(g_plus: SymbolicPolynomial) -> None:
    """At v(x0) = 1/2, v(y) = 3/4 the valuation-5/2 part of g+ is exactly
    15*y^2 - x0^5 - 25*x0 and nothing lies below it; the Newton polygon in
    x0 then forces v(x0) = 1/2 at all five roots over any y on that circle."""
    assignment = {**symbol_valuations([R_SYMBOL], P), **EQ3_ASSIGNMENT}
    verify_reduction(g_plus, assignment, F(5, 2), EQ3)
    by_x0 = g_plus.as_univariate("x0")
    coeff_minima = [
        min_valuation(by_x0.get(i, SymbolicPolynomial.zero()), assignment, P).value
        for i in range(6)
    ]
    roots = newton_polygon(coeff_minima).root_valuations()
    if roots != ((EQ3_ASSIGNMENT["x0"], 5),):
        raise CertificateError(f"eq 3 dominance fails: x0-polygon roots {roots}")


def reduction_eq4(g_plus: SymbolicPolynomial) -> Fraction:
    """With alpha = sqrt(5), beta = 5^(3/4) the scaled plus-curve model
    (1/(15 beta^2)) g+(alpha x1, beta y1) is integral and reduces to
    y1^2 = 2 x1^5 + 2 x1 over F5-bar; returns its least positive valuation."""
    alpha, beta = sym("alpha_eq4"), sym("beta_eq4")
    x1, y1 = sym("x1"), sym("y1")
    # x0 = alpha x1 and y = beta y1 on the circle of eq 3
    symbols = [
        R_SYMBOL,
        ValuedSymbol("alpha_eq4", EQ3_ASSIGNMENT["x0"], (2, SymbolicPolynomial.constant(5))),
        ValuedSymbol("beta_eq4", EQ3_ASSIGNMENT["y"], (2, 5 * alpha)),
    ]
    assignment = {**symbol_valuations(symbols, P), "x1": F(0), "y1": F(0)}
    scaled = g_plus.substitute("x0", alpha * x1).substitute("y", beta * y1)
    # 1/(15 beta^2) = alpha/375 after beta^2 -> 5 alpha, alpha^2 -> 5
    scaled = normal_form(scaled * alpha / 375, symbols)
    # 1/3 = 2 in F5, so this valuation-0 part reduces to y1^2 = 2 x1^5 + 2 x1
    return verify_reduction(scaled, assignment, 0, y1**2 - F(1, 3) * x1**5 - F(1, 3) * x1)


def reduction_eq6(delta_bound: Fraction) -> Fraction:
    """On the circle v(s) = 6/25, with s = alpha s0, u = beta u0 and
    y = (s^5/sqrt15)(1 + delta) (delta the annulus-parameterization error,
    of valuation at least the Hensel bound), the fiber equation scaled by
    1/(r beta^2) is integral and its valuation-0 part is
    u0^2 - (alpha^5/(sqrt15 beta r)) s0^5 u0 + 5/(beta^2 r), term for term;
    returns the scaled fiber's least positive valuation."""
    alpha, beta = sym("alpha_eq6"), sym("beta_eq6")
    s0, u0, delta = sym("s0"), sym("u0"), sym("delta")
    # s = alpha s0 on the circle that carries the ramification points
    symbols = [
        R_SYMBOL,
        SQRT15_SYMBOL,
        ValuedSymbol("alpha_eq6", RAM_CIRCLE, (25, SymbolicPolynomial.constant(5**6))),
        ValuedSymbol("beta_eq6", F(3, 10), (10, SymbolicPolynomial.constant(5**3))),
    ]
    assignment = {**symbol_valuations(symbols, P), "s0": F(0), "u0": F(0), "delta": delta_bound}
    inv_r = R_INVERSE                    # 1/r via r^5 -> 25 - 25r
    inv_beta2 = beta**8 / 125            # 1/beta^2 via beta^10 -> 5^3
    inv_sqrt15 = sqrt15 / 15             # 1/sqrt15 via sqrt15^2 -> 15
    if normal_form(r * inv_r, [R_SYMBOL]) != 1:
        raise CertificateError(f"R_INVERSE = {inv_r} is not 1/r")
    if delta_bound <= 0:
        raise CertificateError(f"the Hensel error bound {delta_bound} is not positive")

    # fiber equation x u^2 - y u + 5 with x = s^2 + r = alpha^2 s0^2 + r,
    # u = beta u0, y = (s^5/sqrt15)(1 + delta); scaled by 1/(r beta^2)
    x_sub = alpha**2 * s0**2 + r
    y_sub = alpha**5 * s0**5 * inv_sqrt15 * (1 + delta)
    raw = x_sub * (beta * u0) ** 2 - y_sub * (beta * u0) + 5
    scaled = normal_form(raw * inv_r * inv_beta2, symbols)

    # the target equation, assembled independently from its published form
    target = (
        u0**2
        - alpha**5 * inv_sqrt15 * (beta**9 / 125) * inv_r * s0**5 * u0
        + 5 * inv_beta2 * inv_r
    )
    target = normal_form(target, symbols)
    # the coefficients alpha^5/(sqrt15 beta r) of s0^5 u0 and 5/(beta^2 r)
    middle, constant = (
        min_valuation(c, assignment, P)
        for c in (target.coefficient("u0", 1).coefficient("s0", 5), target.coefficient("u0", 0))
    )
    if not all(c.value == 0 and c.unique for c in (middle, constant)):
        raise CertificateError(
            f"eq 6 target coefficients have valuations {middle.value}, {constant.value}: not units"
        )
    target0 = _part_at(target, valuation_levels(target, assignment, P), 0)
    return verify_reduction(scaled, assignment, 0, target0)


# -- the annulus parameterization (Hensel) certificate ----------------------

HENSEL_INTERVAL = (F(1, 5), F(1, 4))
RAM_CIRCLE = F(6, 25)  # v(s) at the circle carrying the ramification points


def _hensel_pieces(g_plus: SymbolicPolynomial) -> tuple[tuple[Affine, ...], tuple[Affine, ...]]:
    """Affine valuation pieces of h(1) and h'(1) as functions of v(s).

    h(y) = s^-10 g+(s^2, s^5 y / sqrt15); the s^-10 scaling enters as the
    affine shift -10*lambda.
    """
    subbed = g_plus.substitute("x0", sym("s") ** 2)
    subbed = subbed.substitute("y", sym("s") ** 5 * sym("yh") * sqrt15 / 15)
    G = normal_form(subbed, [R_SYMBOL, SQRT15_SYMBOL])
    h1 = G.substitute("yh", 1)
    hp1 = G.derivative("yh").substitute("yh", 1)
    fixed = symbol_valuations([R_SYMBOL, SQRT15_SYMBOL], P)
    shift = affine(0, -10)
    # one piece per monomial: two monomials with equal pieces are two witnesses
    return tuple(
        tuple(sorted(fn for fn, _ in param_valuations(h, fixed, {"s": 1}, P, shift)))
        for h in (h1, hp1)
    )


def hensel_certificate(g_plus: SymbolicPolynomial) -> Fraction:
    """Valuation envelopes of h(1) and h'(1) on the annulus 1/5 < v(s) < 1/4;
    returns the Hensel bound delta, v(h(1)) at the ramification circle.

    Both halves read `dominant_piece`.  Certifies, exactly: v(h'(1)) = 0 on
    the open annulus, since its constant piece 0 lies strictly below every
    other h'(1) piece there (at v(s) = 1/5 the piece -2 + 10 v(s) ties it,
    so the closed interval is not claimed; Hensel's lemma needs only the
    open annulus); and v(h(1)) > 0 strictly inside the open interval, since
    the h(1) envelope, a minimum of affine pieces, is concave, 0 at both
    endpoints (each time a dominant piece on that circle, so the annulus is
    maximal) and positive at v(s) = 6/25.  That value delta, the least h(1)
    piece at the ramification circle, is the error bound that the
    genus-0-component reduction (eq 6) reads.
    """
    lo, hi = HENSEL_INTERVAL
    h1_pieces, hp1_pieces = _hensel_pieces(g_plus)

    lo_piece, hi_piece = (dominant_piece(h1_pieces, e, e) for e in (lo, hi))
    delta = min(fn(RAM_CIRCLE) for fn in h1_pieces)
    # concave, so on [lo, 6/25] and on [6/25, hi] it lies on or above the chord
    # from 0 to delta: delta > 0 makes it > 0 on the whole open interval
    h1_ok = (
        lo_piece is not None and lo_piece(lo) == 0
        and hi_piece is not None and hi_piece(hi) == 0
        and delta > 0
    )
    if not h1_ok:
        lo_min, hi_min = (min(fn(e) for fn in h1_pieces) for e in (lo, hi))
        raise CertificateError(
            f"v(h(1)) is {lo_min} at v(s) = 1/5 (alone: {lo_piece is not None}), {hi_min} at "
            f"1/4 (alone: {hi_piece is not None}) and {delta} at 6/25: not certified > 0 inside"
        )
    if dominant_piece(hp1_pieces, lo, hi) != Affine(F(0), F(0)):
        raise CertificateError(
            "the constant piece 0 of v(h'(1)) is not strictly below every other piece "
            "on 1/5 < v(s) < 1/4"
        )
    return delta


def fiber_square_identity() -> None:
    """(2xu - y)^2 - (y^2 - 20x) == 4x * (xu^2 - yu + 5), both sides expanded."""
    if (2 * x * u - y) ** 2 - (y**2 - 20 * x) != 4 * x * FIBER:
        raise CertificateError("the fiber square identity has a nonzero remainder")

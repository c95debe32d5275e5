"""Newton polygons, plain and parametric.

Sign convention, fixed once for the whole package and asserted in tests: a
lower-hull segment of slope sigma and horizontal length L certifies L roots
of valuation -sigma.  (Equivalently: for an Eisenstein-type polynomial with
v(a_0) = 1, v(a_n) = 0 the single segment has slope -1/n and the roots have
valuation 1/n.)

The parametric variant handles coefficient valuations that are minima of
affine functions of a parameter lambda.  A cell decomposition of the lambda
interval is computed so that on each open cell the combinatorial hull is
constant; each cell carries an exact certificate (hull constraints are affine
in lambda and are checked at both cell endpoints, which bounds them on the
whole cell).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .valuation import INF, Affine, ExtValuation, is_finite, val_rat


class NewtonPolygon(NamedTuple):
    hull_vertices: tuple[tuple[int, Fraction], ...]

    @property
    def segments(self) -> tuple[tuple[Fraction, int], ...]:
        """(slope, horizontal length) of each edge between hull vertices."""
        return tuple(
            (Fraction(b[1] - a[1], b[0] - a[0]), b[0] - a[0])
            for a, b in zip(self.hull_vertices, self.hull_vertices[1:])
        )

    def root_valuations(self) -> tuple[tuple[Fraction, int], ...]:
        """Multiset of root valuations: (valuation, count), by convention -slope."""
        return tuple(sorted((-s, n) for s, n in self.segments))


def lower_hull(points: Sequence[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Lower convex hull of points sorted by abscissa; collinear points dropped."""
    hull: list[tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strictly convex turns: (x2,y2) must lie strictly
            # below the chord from (x1,y1) to pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(vals: Sequence[ExtValuation]) -> NewtonPolygon:
    """Lower convex hull of {(i, vals[i]) : vals[i] finite}."""
    finite = [(i, Fraction(v)) for i, v in enumerate(vals) if is_finite(v)]
    if len(finite) < 2:
        raise ValueError("need at least two finite valuations")
    polygon = NewtonPolygon(tuple(lower_hull(finite)))
    segments = polygon.segments
    slopes = [s for s, _ in segments]
    if any(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:])):
        raise AssertionError("hull slopes must increase strictly")
    if sum(n for _, n in segments) != finite[-1][0] - finite[0][0]:
        raise AssertionError("hull segments must span the finite points")
    return polygon


def root_valuation_multiset(
    coeffs: Sequence[int], p: int
) -> tuple[tuple[ExtValuation, int], ...]:
    """Sorted (valuation, count) pairs of the p-adic root valuations of the
    polynomial with ascending coefficients ``coeffs``; each root 0 counts as
    valuation INF, so it comes last."""
    zeros = next((i for i, c in enumerate(coeffs) if c), None)
    if zeros is None:
        raise ValueError("the zero polynomial has no root multiset")
    rest = [val_rat(c, p) for c in coeffs[zeros:]]
    multiset = newton_polygon(rest).root_valuations() if len(rest) > 1 else ()
    return multiset + (((INF, zeros),) if zeros else ())


class PolygonCell(NamedTuple):
    """Combinatorial hull data valid on an open lambda-cell.

    ``vertices`` are hull vertex indices; ``segments`` pairs (affine slope,
    length).  Root valuations at a given lambda are -slope(lambda) with the
    segment lengths as counts.
    """

    lo: Fraction
    hi: Fraction
    vertices: tuple[int, ...]
    segments: tuple[tuple[Affine, int], ...]

    def root_valuations_at(self, lam) -> tuple[tuple[Fraction, int], ...]:
        lam = Fraction(lam)
        if not self.lo <= lam <= self.hi:
            raise ValueError(f"lambda {lam} outside cell [{self.lo}, {self.hi}]")
        merged: dict[Fraction, int] = {}
        for fn, n in self.segments:  # slopes may collide at a cell boundary
            v = -fn(lam)
            merged[v] = merged.get(v, 0) + n
        return tuple(sorted(merged.items()))


class ParamPolygon(NamedTuple):
    """Newton polygon of a family, as a certified cell decomposition.

    ``cells`` cover the interval in order and are all it stores: the interval
    runs from the first cell's ``lo`` to the last cell's ``hi``, and the
    ``breakpoints`` are the interior lambda values where the hull's vertex
    set changes, each the ``lo`` of a cell whose vertex set differs from its
    predecessor's.
    """

    cells: tuple[PolygonCell, ...]

    @property
    def lo(self) -> Fraction:
        return self.cells[0].lo

    @property
    def hi(self) -> Fraction:
        return self.cells[-1].hi

    def _changes(self) -> list[PolygonCell]:
        """The cells whose vertex set differs from the previous cell's."""
        return [c2 for c1, c2 in zip(self.cells, self.cells[1:]) if c1.vertices != c2.vertices]

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(cell.lo for cell in self._changes())

    def cell_at(self, lam) -> PolygonCell:
        lam = Fraction(lam)
        if not self.lo < lam < self.hi:
            raise ValueError(f"lambda {lam} outside open interval ({self.lo}, {self.hi})")
        if lam in self.breakpoints:
            raise ValueError(f"lambda {lam} is a breakpoint; no single cell applies")
        for cell in self.cells:
            if cell.lo <= lam <= cell.hi:
                return cell
        raise AssertionError("cell decomposition does not cover the interval")

    def vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return (self.cells[0].vertices,) + tuple(cell.vertices for cell in self._changes())


def parametric_polygon(
    pvals: Sequence[Sequence[Affine]],
    interval: tuple[Fraction, Fraction],
) -> ParamPolygon:
    """Certified parametric Newton polygon on an open interval.

    ``pvals[i]`` is the valuation of coefficient i as a sequence of Affine
    pieces: the valuation is their minimum, and an empty sequence is
    +infinity.  Cells are split until, on each one, a midpoint hull is
    certified over the whole cell by endpoint checks of affine inequalities.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    indexed = [(i, pieces) for i, pieces in enumerate(pvals) if pieces]
    if len(indexed) < 2:
        raise ValueError("need at least two indices with finite valuations")

    cells: list[PolygonCell] = []
    work = [(lo, hi)]
    for _ in range(10_000):
        if not work:
            return ParamPolygon(tuple(sorted(cells, key=lambda c: c.lo)))
        a, b = work.pop()
        cell_or_split = _certify_cell(indexed, a, b)
        if isinstance(cell_or_split, PolygonCell):
            cells.append(cell_or_split)
        else:
            work += [(a, cell_or_split), (cell_or_split, b)]
    raise RuntimeError("cell refinement did not terminate")


def _certify_cell(indexed, a: Fraction, b: Fraction):
    """Either a certified PolygonCell on [a, b] or a split point inside."""
    mid = (a + b) / 2
    actives = {i: min(pieces, key=lambda fn: fn(mid)) for i, pieces in indexed}

    hull_pts = lower_hull([(i, actives[i](mid)) for i, _ in indexed])
    vertices = tuple(i for i, _ in hull_pts)

    constraints: list[Affine] = []
    # (1) the active piece is minimal within its own index
    for i, pieces in indexed:
        for piece in pieces:
            if piece != actives[i]:
                constraints.append(piece - actives[i])
    # (2) every point lies weakly above every hull segment's supporting line:
    #     (j-i)*v_k - (k-i)*v_j + (k-j)*v_i >= 0 for segment (i, j), point k
    for (i, _), (j, _) in zip(hull_pts, hull_pts[1:]):
        vi, vj = actives[i], actives[j]
        for k, _ in indexed:
            if k == i or k == j:
                continue
            vk = actives[k]
            fn = Affine(
                (j - i) * vk.constant - (k - i) * vj.constant + (k - j) * vi.constant,
                (j - i) * vk.slope - (k - i) * vj.slope + (k - j) * vi.slope,
            )
            constraints.append(fn)

    for fn in constraints:
        if fn(a) < 0 or fn(b) < 0:
            rho = fn.root()
            if rho is None or not a < rho < b:
                # piece order flips outside the cell; midpoint choice was
                # tied at an endpoint, split at the midpoint instead
                rho = mid
            return rho

    segments = tuple(
        (
            Affine(
                Fraction(actives[j].constant - actives[i].constant, j - i),
                Fraction(actives[j].slope - actives[i].slope, j - i),
            ),
            j - i,
        )
        for i, j in zip(vertices, vertices[1:])
    )
    return PolygonCell(a, b, vertices, segments)

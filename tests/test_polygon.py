import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablelab.exactmath.kernel import INF, affine, val_rat
from stablelab.exactmath.poly import poly_to_coeffs, sym
from stablelab.exactmath.polygon import newton_polygon, parametric_polygon, root_valuation_multiset

x = sym("x")


def test_polygon_examples():
    # ramification polynomial table: single segment, ten roots at 7/10
    np1 = newton_polygon([7, 7, 6, 6, 5, 5, 4, 4, 3, INF, 0])
    assert np1.root_valuations() == ((F(7, 10), 10),)
    assert np1.hull_vertices == ((0, 7), (10, 0))

    # r^5 + 25r - 25: one segment of slope -2/5
    np2 = newton_polygon([2, 2, INF, INF, INF, 0])
    assert np2.root_valuations() == ((F(2, 5), 5),)

    # x^2 - 5, Eisenstein: both roots at 1/2
    np3 = newton_polygon([1, INF, 0])
    assert np3.root_valuations() == ((F(1, 2), 2),)


def test_polygon_sign_convention():
    # 5x - 1 has the root 1/5 of valuation -1: slope convention fixed here
    np_ = newton_polygon([0, 1])
    assert np_.root_valuations() == ((F(-1), 1),)


def test_polygon_collinear_points_are_not_vertices():
    np_ = newton_polygon([F(5, 2), 2, 2, F(9, 5), F(7, 5), 0])
    assert np_.hull_vertices == ((0, F(5, 2)), (5, 0))
    assert np_.segments == ((F(-1, 2), 5),)


def test_polygon_needs_two_finite_points():
    with pytest.raises(ValueError):
        newton_polygon([1, INF, INF])


def test_product_root_multiset_is_union():
    f = (x - 5) * (20 * x - 4) * (x - 1)  # roots 5, 1/5, 1
    vals = [val_rat(c, 5) for c in poly_to_coeffs(f, "x")]
    assert newton_polygon(vals).root_valuations() == ((F(-1), 1), (F(0), 1), (F(1), 1))


def test_polygon_slopes_strictly_increase_randomized():
    rng = random.Random(7)
    for _ in range(50):
        vals = []
        for _ in range(rng.randint(2, 12)):
            vals.append(INF if rng.random() < 0.2 else F(rng.randint(-6, 6)))
        if sum(1 for v in vals if v != INF) < 2:
            continue
        np_ = newton_polygon(vals)
        slopes = [s for s, _ in np_.segments]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        width = sum(n for _, n in np_.segments)
        finite = [i for i, v in enumerate(vals) if v != INF]
        assert width == finite[-1] - finite[0]


def test_parametric_trivial_cells():
    # Eisenstein-type x^2 - 5: roots at 1/2 for every lambda
    pp = parametric_polygon([[affine(1)], [], [affine(0)]], (0, 1))
    assert pp.breakpoints == ()
    assert pp.cell_at(F(1, 3)).root_valuations_at(F(1, 3)) == ((F(1, 2), 2),)

    # linear c1 x + c0 with v(c0) = lambda: root valuation lambda everywhere
    pp2 = parametric_polygon([[affine(0, 1)], [affine(0)]], (0, 1))
    assert pp2.cell_at(F(2, 7)).root_valuations_at(F(2, 7)) == ((F(2, 7), 1),)


def _single_pieces_at(pvals, lam):
    """The coefficient valuations at lambda of one piece or none per index."""
    return [pieces[0](lam) if pieces else INF for pieces in pvals]


def test_parametric_breakpoint_and_agreement():
    pvals = [[affine(0)]] + [[]] * 9 + [[affine(0, 1)], [], [affine(1)]]
    pp = parametric_polygon(pvals, (0, 1))
    assert pp.breakpoints == (F(5, 6),)
    assert pp.vertex_sets() == ((0, 10, 12), (0, 12))
    with pytest.raises(ValueError):
        pp.cell_at(F(5, 6))
    # agreement with the pointwise polygon at 5 sampled lambdas per cell
    rng = random.Random(11)
    samples = []
    for lo, hi in ((F(0), F(5, 6)), (F(5, 6), F(1))):
        for _ in range(5):
            samples.append(lo + (hi - lo) * F(rng.randint(1, 99), 100))
    for lam in samples:
        if lam == F(5, 6):
            continue
        vals = _single_pieces_at(pvals, lam)
        assert newton_polygon(vals).root_valuations() == pp.cell_at(lam).root_valuations_at(lam)


def test_parametric_min_of_affine_per_index():
    # index 0 carries two pieces: min(1, 2*lambda): breakpoint at 1/2
    pp = parametric_polygon([[affine(1), affine(0, 2)], [affine(0)]], (0, 1))
    left = pp.cell_at(F(1, 4)).root_valuations_at(F(1, 4))
    right = pp.cell_at(F(3, 4)).root_valuations_at(F(3, 4))
    assert left == ((F(1, 2), 1),)
    assert right == ((F(1), 1),)


def test_parametric_adjacent_cells_agree_at_breakpoint():
    pvals = [[affine(0)]] + [[]] * 9 + [[affine(0, 1)], [], [affine(1)]]
    pp = parametric_polygon(pvals, (0, 1))
    lam = pp.breakpoints[0]
    vals = _single_pieces_at(pvals, lam)
    exact = newton_polygon(vals).root_valuations()
    below = [c for c in pp.cells if c.hi == lam][-1]
    above = [c for c in pp.cells if c.lo == lam][0]
    assert below.root_valuations_at(lam) == exact
    assert above.root_valuations_at(lam) == exact


def test_parametric_empty_interval():
    with pytest.raises(ValueError):
        parametric_polygon([[affine(0)], [affine(1)]], (1, 1))


def test_parametric_randomized_agreement():
    """Random affine families: the certified cell decomposition must agree
    with the pointwise polygon at cell midpoints and at random interior
    lambdas (excluding exact breakpoints)."""
    rng = random.Random(20240816)
    for _ in range(20):
        size = rng.randint(3, 8)
        pvals = []
        for _ in range(size):
            if rng.random() < 0.2:
                pvals.append([])
            else:
                pieces = [
                    affine(F(rng.randint(-4, 8), rng.randint(1, 3)),
                           F(rng.randint(-6, 6), rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 3))
                ]
                pvals.append(pieces)
        if sum(1 for p in pvals if p) < 2:
            pvals[0] = [affine(0)]
            pvals[-1] = [affine(1)]
        pp = parametric_polygon(pvals, (0, 1))

        def value_at(entry, lam):
            if not entry:
                return INF
            return min(fn(lam) for fn in entry)

        samples = [(c.lo + c.hi) / 2 for c in pp.cells]
        samples += [F(rng.randint(1, 99), 100) for _ in range(5)]
        for lam in samples:
            if lam in pp.breakpoints or not 0 < lam < 1:
                continue
            vals = [value_at(entry, lam) for entry in pvals]
            assert newton_polygon(vals).root_valuations() == (
                pp.cell_at(lam).root_valuations_at(lam)
            ), (pvals, lam)


nonzero = st.integers(-10**6, 10**6).filter(bool)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nonzero, st.lists(st.integers(-10**6, 10**6), max_size=10), nonzero,
       st.sampled_from([2, 3, 5, 7]))
def test_newton_polygon_multiplicities_sum_to_degree(c0, middle, lead, p):
    """With nonzero constant and leading coefficients every root has finite
    valuation: the multiplicities sum to the degree, and the valuations sum
    to v(c0) - v(lead), the valuation of the product of the roots."""
    coeffs = [c0] + middle + [lead]
    roots = newton_polygon([val_rat(c, p) for c in coeffs]).root_valuations()
    assert sum(n for _, n in roots) == len(coeffs) - 1
    assert sum(v * n for v, n in roots) == val_rat(F(c0, lead), p)


def test_root_valuation_multiset_counts_zero_roots_as_inf():
    # x^2 (x^2 + 25): two roots at v = 1 and the double root 0
    assert root_valuation_multiset([0, 0, 25, 0, 1], 5) == ((1, 2), (INF, 2))
    assert root_valuation_multiset([0, 0, 1], 5) == ((INF, 2),)
    assert root_valuation_multiset([7], 5) == ()
    assert root_valuation_multiset([-5, 0, 1], 5) == ((F(1, 2), 2),)
    with pytest.raises(ValueError):
        root_valuation_multiset([0, 0], 5)

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablelab import CertificateError, quatlab
from stablelab.checks import Config
from stablelab.cli import run_suite


def test_algebra_params_validation():
    quatlab.AlgebraParams(7, 3)
    quatlab.AlgebraParams(7, 6)  # -1 is a non-residue mod 7
    with pytest.raises(ValueError):
        quatlab.AlgebraParams(7, 2)  # 2 = 3^2 mod 7
    with pytest.raises(ValueError):
        quatlab.AlgebraParams(9, 2)


def test_structure_constants():
    params = quatlab.AlgebraParams(7, 3)
    table = quatlab.build_algebra(params)
    assert table[(1, 2)] == (0, 0, 0, 1)  # i eps_j = eps_k
    assert table[(2, 1)] == (0, 0, 0, 6)  # eps_j i = -eps_k
    assert table[(1, 3)] == (0, 0, 3, 0)  # i eps_k = alpha eps_j
    assert table[(1, 1)] == (3, 0, 0, 0)  # i^2 = alpha
    for a, b in itertools.product((2, 3), repeat=2):
        assert table[(a, b)] == (0, 0, 0, 0)


def test_associativity_exhaustive_on_full_algebra():
    params = quatlab.AlgebraParams(5, 2)
    elements = [
        quatlab.AbarElement(a, b, c, d)
        for a in range(5) for b in range(5) for c in range(5) for d in range(5)
    ]
    rng = random.Random(4)
    sample = rng.sample(elements, 40)
    for x, y, z in zip(sample, sample[1:], sample[2:]):
        left = quatlab.multiply(quatlab.multiply(x, y, params), z, params)
        right = quatlab.multiply(x, quatlab.multiply(y, z, params), params)
        assert left == right


def test_nilradical_is_two_sided_ideal():
    for p in (5, 7, 13):
        params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
        nil = [
            quatlab.AbarElement(0, 0, c, d) for c in range(p) for d in range(p)
        ]
        generic = [
            quatlab.AbarElement(a, b, c, d)
            for a in range(p) for b in range(p) for c in (0, 1) for d in (0, 2 % p)
        ]
        for x in nil:
            for g in generic:
                for prod in (quatlab.multiply(g, x, params), quatlab.multiply(x, g, params)):
                    assert prod.a == 0 and prod.b == 0


@pytest.mark.parametrize("p", [5, 7, 13, 17, 101])
def test_orbit_analysis(p):
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    orbits = quatlab.orbit_analysis(params, quatlab.build_algebra(params))
    assert len(orbits) == p - 1
    assert all(size == p + 1 for size, _, _ in orbits)
    assert sum(size for size, _, _ in orbits) == p * p - 1
    invariants = [inv for _, _, inv in orbits]
    assert len(set(invariants)) == p - 1 and 0 not in invariants
    # |Orb| * |Stab| = |F_{p^2}^*|
    assert (p + 1) * (p - 1) == p * p - 1


def _enumerated_orbits(params):
    """Reference: conjugate every nonzero nilpotent by every unit (p^4 products)."""
    p, alpha = params.p, params.alpha
    units = [quatlab.AbarElement(a, b, 0, 0) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    nilpotents = [
        quatlab.AbarElement(0, 0, c, d) for c in range(p) for d in range(p) if (c, d) != (0, 0)
    ]

    def invariant(x):
        return (x.c * x.c - alpha * x.d * x.d) % p

    seen = set()
    orbits = []
    for x in nilpotents:
        orbit = set()
        stabilizer = []
        for g in units:
            conjugate = quatlab.multiply(
                quatlab.multiply(g, x, params), quatlab.unit_inverse(g, params), params
            )
            orbit.add(conjugate)
            if conjugate == x:
                stabilizer.append(g)
        assert len(stabilizer) == p - 1 and all(g.b == 0 for g in stabilizer)
        assert len(orbit) == p + 1
        assert {invariant(z) for z in orbit} == {invariant(x)}
        if x not in seen:
            orbits.append((len(orbit), x, invariant(x)))
            seen |= orbit
    assert len(orbits) == p - 1
    assert len({inv for _, _, inv in orbits}) == p - 1
    return tuple(orbits)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_orbit_analysis_matches_enumeration(p):
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    table = quatlab.build_algebra(params)
    assert quatlab.orbit_analysis(params, table) == _enumerated_orbits(params)


@pytest.mark.parametrize("cell, wrong", [((1, 2), (0, 0, 0, 6)), ((2, 1), (0, 0, 0, 1))],
                         ids=["i-eps_j", "eps_j-i"])
def test_orbit_analysis_reads_the_basis_identities_off_its_table(cell, wrong):
    """The orbit certificate rests on i eps_j = eps_k = -eps_j i, which it
    checks on the table it is given: a table with -eps_k for i eps_j, or
    eps_k for eps_j i, is rejected."""
    params = quatlab.AlgebraParams(7, 3)
    table = {**quatlab.build_algebra(params), cell: wrong}
    with pytest.raises(CertificateError, match="^i eps_j = eps_k = -eps_j i fails on the basis$"):
        quatlab.orbit_analysis(params, table)


def _commutative_multiply(x, y, params):
    p, alpha = params.p, params.alpha
    a, b, c, d = x
    e, f, g, h = y
    return quatlab.AbarElement(
        (a * e + alpha * b * f) % p,
        (a * f + b * e) % p,
        (a * g + c * e + alpha * (b * h + d * f)) % p,
        (a * h + d * e + (b * g + c * f)) % p,
    )


def _inverse_without_norm(x, params):
    return quatlab.AbarElement(x.a, -x.b % params.p, 0, 0)


@pytest.mark.parametrize("name, mutant", [
    ("multiply", _commutative_multiply),
    ("unit_inverse", _inverse_without_norm),
])
def test_orbit_certificate_rejects_mutants(monkeypatch, name, mutant):
    monkeypatch.setattr(quatlab, name, mutant)
    for p in (3, 5, 7, 13):
        with pytest.raises(CertificateError):
            params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
            quatlab.orbit_analysis(params, quatlab.build_algebra(params))
    report = run_suite("quat", Config(primes=(7,)), clock=lambda: 0.0)
    orbits = {r.id: r for r in report.results}["lemma-3.4.1-orbits-p07"]
    assert orbits.status == "fail"
    assert not orbits.details.startswith("internal error")


def _add(x, y, p):
    return quatlab.AbarElement(*((s + t) % p for s, t in zip(x, y)))


_COORDS = st.tuples(*[st.integers(min_value=0, max_value=12)] * 4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from([5, 7, 13]), xs=st.tuples(_COORDS, _COORDS, _COORDS), scalar=st.integers(0, 12))
def test_multiply_is_bilinear_and_units_commute(p, xs, scalar):
    # build_algebra and orbit_analysis check identities on basis elements only;
    # that is exhaustive because multiply is bilinear and F_p[i] is commutative
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    x, y, z = (quatlab.AbarElement(*(v % p for v in coords)) for coords in xs)
    mul = lambda u, v: quatlab.multiply(u, v, params)
    assert mul(_add(x, y, p), z) == _add(mul(x, z), mul(y, z), p)
    assert mul(z, _add(x, y, p)) == _add(mul(z, x), mul(z, y), p)
    scale = lambda v: quatlab.AbarElement(*(scalar * t % p for t in v))
    assert mul(scale(x), y) == scale(mul(x, y)) == mul(x, scale(y))
    g, h = quatlab.AbarElement(x.a, x.b, 0, 0), quatlab.AbarElement(y.a, y.b, 0, 0)
    assert mul(g, h) == mul(h, g)


def test_invariant_level_set_sizes():
    p = 7
    alpha = quatlab.smallest_nonresidue(p)
    counts = {}
    for c in range(p):
        for d in range(p):
            if (c, d) == (0, 0):
                continue
            counts.setdefault((c * c - alpha * d * d) % p, 0)
            counts[(c * c - alpha * d * d) % p] += 1
    assert set(counts.values()) == {p + 1}
    assert len(counts) == p - 1


def test_quaternion_square_symbolic():
    components = quatlab.quaternion_square_symbolic()
    assert len(components) == 4


def test_uniformizer_image_search():
    found = quatlab.uniformizer_image_search()
    assert len(found) == 8
    coords = {(e.c, e.d) for e in found}
    assert coords == {(2, 0), (5, 0), (0, 2), (0, 5), (3, 3), (3, 4), (4, 3), (4, 4)}
    assert all(e.a == 0 and e.b == 0 for e in found)
    # (1, 1) is excluded: 1 + 1 = 2 is not 4 mod 7
    assert (1, 1) not in coords


def test_aut_refinement():
    parts = quatlab.aut_refinement()
    assert len(parts) == 4
    as_coords = {frozenset((e.c, e.d) for e in part) for part in parts}
    assert as_coords == {
        frozenset({(2, 0), (5, 0)}),
        frozenset({(0, 2), (0, 5)}),
        frozenset({(3, 4), (4, 3)}),
        frozenset({(3, 3), (4, 4)}),
    }


def test_class_count():
    assert quatlab.class_count(7, 4) == 4
    assert quatlab.class_count(5, 6) == 2
    assert quatlab.class_count(13, 2) == 14
    with pytest.raises(ValueError):
        quatlab.class_count(7, 6)
    with pytest.raises(ValueError):
        quatlab.class_count(7, 8)


def test_quaternion_norm_multiplicative():
    """N(xy) = N(x) N(y) in (-1, -7) over Q and in Abar_p = (alpha, 0) mod p."""
    rng = random.Random(17)
    a, b = quatlab.EXAMPLE_QUATERNIONS
    norm = lambda z: quatlab.reduced_norm(z, a, b)
    for _ in range(100):
        x, y = (tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in "abcd") for _ in "xy")
        assert norm(quatlab.quaternion_product(x, y, a, b)) == norm(x) * norm(y)
    for p in (5, 7, 13):
        params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
        norm = lambda z: quatlab.reduced_norm(z, params.alpha, 0) % p
        for _ in range(100):
            x, y = (quatlab.AbarElement(*(rng.randrange(p) for _ in "abcd")) for _ in "xy")
            assert norm(quatlab.multiply(x, y, params)) == norm(x) * norm(y) % p


def test_example_quaternions_reduce_mod_7_to_abar_7():
    """Abar_7 is (-1, -7) reduced mod 7: the rational product of examples
    3.4.2-3.4.3, reduced, is `multiply` under EXAMPLE_PARAMS (alpha = 6)."""
    params = quatlab.EXAMPLE_PARAMS
    basis = [tuple(int(i == k) for k in range(4)) for i in range(4)]
    rng = random.Random(7)
    sample = [tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(60)]
    reduce = lambda z: quatlab.AbarElement(*(t % 7 for t in z))
    for x, y in [*itertools.product(basis, repeat=2), *zip(sample, sample[1:])]:
        product = quatlab.quaternion_product(x, y, *quatlab.EXAMPLE_QUATERNIONS)
        assert reduce(product) == quatlab.multiply(reduce(x), reduce(y), params), (x, y)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_inverse_is_conjugate_over_norm(p):
    """Every unit of Abar_p, nilpotent part included, is inverted on both
    sides; an element of reduced norm 0 mod p is not a unit."""
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    one = quatlab.AbarElement(1, 0, 0, 0)
    for x in itertools.starmap(quatlab.AbarElement, itertools.product(range(p), repeat=4)):
        if (x.a, x.b) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                quatlab.unit_inverse(x, params)
            continue
        inverse = quatlab.unit_inverse(x, params)
        assert quatlab.multiply(x, inverse, params) == one == quatlab.multiply(inverse, x, params)


_PRODUCT = quatlab.quaternion_product


def _i_squared_negated(x, y, a, b):
    """The shared product with the sign of its a x1 y1 term flipped."""
    first, *rest = _PRODUCT(x, y, a, b)
    return (first - 2 * a * x[1] * y[1], *rest)


def test_a_sign_mutant_of_the_product_fails_the_orbit_and_norm_checks(monkeypatch):
    """Abar_p and the p = 7 example share one product, so one sign mutant of
    it fails the algebra behind lemma 3.4.1 and the norm identity of
    example 3.4.2 in one run, each with a certificate's reason."""
    monkeypatch.setattr(quatlab, "quaternion_product", _i_squared_negated)
    report = run_suite("quat", Config(primes=(7,)), clock=lambda: 0.0)
    results = {r.id: r for r in report.results}
    for check_id in ("lemma-3.4.1-orbits-p07", "quaternion-norm"):
        assert results[check_id].status == "fail", check_id
        assert not results[check_id].details.startswith("internal error"), check_id


def test_quaternion_norm_check_is_an_identity(monkeypatch):
    from stablelab.checks import quat

    assert quat._check_quaternion_norm() == (
        "norm a^2 + b^2 + 7c^2 + 7d^2 multiplicative as a polynomial identity"
    )

    def sign_flipped(x, y, a, b):  # the -ab x3 y3 term becomes +ab x3 y3
        first, *rest = _PRODUCT(x, y, a, b)
        return (first + 2 * a * b * x[3] * y[3], *rest)

    monkeypatch.setattr(quatlab, "quaternion_product", sign_flipped)
    with pytest.raises(CertificateError, match=r"N\(xy\) - N\(x\)N\(y\) is not the zero"):
        quat._check_quaternion_norm()

"""Brute-force verification of the finite endomorphism-algebra combinatorics.

The algebra is F_p[i, eps_j, eps_k] with i^2 = alpha (a non-residue),
eps_j^2 = eps_k^2 = eps_j eps_k = eps_k eps_j = 0 and i eps_j = eps_k =
-eps_j i.  The unit group F_{p^2}^* = F_p[i]^* acts on the nilradical
{c eps_j + d eps_k} by conjugation; everything asserted about this action
(stabilizers, orbit sizes, the invariant c^2 - alpha d^2) is verified by
exhaustive enumeration, not sampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactmath import SymbolicPolynomial, is_prime, sym


class AbarElement(NamedTuple):
    """a + b*i + c*eps_j + d*eps_k with coordinates in F_p."""

    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class AlgebraParams:
    p: int
    alpha: int

    def __post_init__(self):
        p, alpha = self.p, self.alpha
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        if pow(alpha % p, (p - 1) // 2, p) != p - 1:
            raise ValueError(f"{alpha} is not a quadratic non-residue mod {p}")


def smallest_nonresidue(p: int) -> int:
    for candidate in range(2, p):
        if pow(candidate, (p - 1) // 2, p) == p - 1:
            return candidate
    raise ValueError(f"no non-residue found mod {p}")


def multiply(x: AbarElement, y: AbarElement, params: AlgebraParams) -> AbarElement:
    """Product in F_p[i, eps_j, eps_k], from the defining relations."""
    p, alpha = params.p, params.alpha
    a, b, c, d = x
    e, f, g, h = y
    return AbarElement(
        (a * e + alpha * b * f) % p,
        (a * f + b * e) % p,
        (a * g + c * e + alpha * (b * h - d * f)) % p,
        (a * h + d * e + (b * g - c * f)) % p,
    )


def unit_inverse(x: AbarElement, params: AlgebraParams) -> AbarElement:
    """Inverse of a unit a + b*i (nilpotent part must vanish)."""
    p, alpha = params.p, params.alpha
    a, b, c, d = x
    if (c, d) != (0, 0):
        raise ValueError("only F_p[i] units are inverted here")
    norm = (a * a - alpha * b * b) % p
    if norm == 0:
        raise ZeroDivisionError("element is not a unit")
    inv = pow(norm, -1, p)
    return AbarElement((a * inv) % p, (-b * inv) % p, 0, 0)


def build_algebra(params: AlgebraParams) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    """4x4 structure-constant table on the basis (1, i, eps_j, eps_k).

    Associativity is verified exhaustively on all basis triples before the
    table is returned.
    """
    basis = [
        AbarElement(1, 0, 0, 0),
        AbarElement(0, 1, 0, 0),
        AbarElement(0, 0, 1, 0),
        AbarElement(0, 0, 0, 1),
    ]
    table = {
        (i, j): tuple(multiply(basis[i], basis[j], params))
        for i in range(4)
        for j in range(4)
    }
    for bi, bj, bk in itertools.product(basis, repeat=3):
        left = multiply(multiply(bi, bj, params), bk, params)
        right = multiply(bi, multiply(bj, bk, params), params)
        if left != right:
            raise AssertionError(f"associativity fails on {bi}, {bj}, {bk}")
    return table


@dataclass(frozen=True)
class OrbitReport:
    params: AlgebraParams
    orbits: tuple[tuple[int, AbarElement, int], ...]  # (size, representative, c^2 - alpha d^2)
    stabilizer: str


def orbit_analysis(params: AlgebraParams) -> OrbitReport:
    """Conjugation orbits of F_{p^2}^* on the nonzero nilradical, exhaustively.

    Verifies: every stabilizer is exactly F_p^*, every orbit has size p + 1,
    there are p - 1 orbits, and two elements are conjugate iff they share the
    invariant c^2 - alpha d^2.  Any failure raises.
    """
    p, alpha = params.p, params.alpha
    units = [
        AbarElement(a, b, 0, 0)
        for a in range(p)
        for b in range(p)
        if (a, b) != (0, 0)
    ]
    nilpotents = [
        AbarElement(0, 0, c, d)
        for c in range(p)
        for d in range(p)
        if (c, d) != (0, 0)
    ]

    def invariant(x: AbarElement) -> int:
        return (x.c * x.c - alpha * x.d * x.d) % p

    seen: set[AbarElement] = set()
    orbits: list[tuple[int, AbarElement, int]] = []
    for x in nilpotents:
        stabilizer_size = 0
        orbit: set[AbarElement] = set()
        for g in units:
            conjugate = multiply(multiply(g, x, params), unit_inverse(g, params), params)
            orbit.add(conjugate)
            if conjugate == x:
                stabilizer_size += 1
                if g.b != 0:
                    raise AssertionError(f"stabilizer of {x} exceeds F_p^*: {g}")
        if stabilizer_size != p - 1:
            raise AssertionError(f"stabilizer of {x} is not all of F_p^*")
        if len(orbit) != p + 1:
            raise AssertionError(f"orbit of {x} has size {len(orbit)}, not p + 1")
        values = {invariant(z) for z in orbit}
        if values != {invariant(x)}:
            raise AssertionError("invariant is not constant on an orbit")
        if x not in seen:
            orbits.append((len(orbit), x, invariant(x)))
            seen |= orbit
    if len(orbits) != p - 1:
        raise AssertionError(f"expected p - 1 orbits, found {len(orbits)}")
    by_invariant = {inv for _, _, inv in orbits}
    if len(by_invariant) != p - 1:
        raise AssertionError("conjugacy classes are not separated by the invariant")
    return OrbitReport(params, tuple(orbits), "F_p^* (scalars), order p - 1")


# -- the p = 7 worked example ------------------------------------------------

EXAMPLE_PARAMS = AlgebraParams(7, 6)  # alpha = -1: the identification i -> i


def quaternion_square_symbolic() -> tuple[SymbolicPolynomial, ...]:
    """(a + bi + cj + dk)^2 in the rational quaternions with i^2 = -1,
    j^2 = -7, ij = -ji = k, as polynomials in a, b, c, d."""
    a, b, c, d = sym("a"), sym("b"), sym("c"), sym("d")
    components = quaternion_multiply((a, b, c, d), (a, b, c, d))
    expected = (
        a**2 - b**2 - 7 * c**2 - 7 * d**2,
        2 * a * b,
        2 * a * c,
        2 * a * d,
    )
    if tuple(components) != expected:
        raise AssertionError("quaternion square does not reduce to the stated form")
    return expected


def quaternion_multiply(x, y):
    """Multiplication in Q[i, j, k], i^2 = -1, j^2 = -7, ij = -ji = k.

    Works over any commutative coefficient ring (Fractions or polynomials).
    """
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * f - 7 * c * g - 7 * d * h,
        a * f + b * e + 7 * c * h - 7 * d * g,
        a * g + c * e - b * h + d * f,
        a * h + d * e + b * g - c * f,
    )


class QuatElement(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __mul__(self, other):
        return QuatElement(*quaternion_multiply(self, other))

    def norm(self) -> Fraction:
        return self.a**2 + self.b**2 + 7 * self.c**2 + 7 * self.d**2


def uniformizer_image_search() -> tuple[AbarElement, ...]:
    """Possible images in Abar_7 of the uniformizer u = 2*sqrt(-7).

    u^2 = -28, so an integral a + bi + cj + dk squaring to -28 forces a = 0
    (the cross terms 2a(b, c, d) must vanish and a^2 = -28 is impossible) and
    then b^2 + 7c^2 + 7d^2 = 28 forces b = 0 mod 7; reducing mod 7 leaves
    exactly the nilpotents with c^2 + d^2 = 4 in F_7.
    """
    quaternion_square_symbolic()
    # a != 0 would force b = c = d = 0 and a^2 = -28: no integer solution
    if any(a * a == 28 for a in range(-6, 7)):
        raise AssertionError("a^2 = -28 unexpectedly solvable")
    # with a = 0: b^2 + 7c^2 + 7d^2 = 28, so 7 | b^2, so b = 0 mod 7
    for b in range(-5, 6):
        if b * b <= 28 and (28 - b * b) % 7 == 0 and b % 7 != 0:
            raise AssertionError("b not forced to 0 mod 7")
    p = EXAMPLE_PARAMS.p
    found = tuple(
        AbarElement(0, 0, c, d)
        for c in range(p)
        for d in range(p)
        if (c * c + d * d) % p == 4 % p and (c, d) != (0, 0)
    )
    expected = {
        (2, 0), (p - 2, 0), (0, 2), (0, p - 2),
        (3, 3), (3, p - 3), (p - 3, 3), (p - 3, p - 3),
    }
    if {(e.c, e.d) for e in found} != expected:
        raise AssertionError("enumerated class differs from the expected 8 elements")
    return found


def aut_refinement() -> tuple[frozenset[AbarElement], ...]:
    """Split the 8-element class under conjugation by the automorphism i.

    Conjugation by i negates the nilradical, so the class breaks into the
    four pairs {x, -x}: {2 eps_j}, {2 eps_k}, {3 eps_j - 3 eps_k},
    {3 eps_j + 3 eps_k} up to sign.
    """
    params = EXAMPLE_PARAMS
    p = params.p
    i_elem = AbarElement(0, 1, 0, 0)
    i_inv = unit_inverse(i_elem, params)
    parts: dict[frozenset[AbarElement], None] = {}
    for x in uniformizer_image_search():
        conj = multiply(multiply(i_elem, x, params), i_inv, params)
        negated = AbarElement(0, 0, (-x.c) % p, (-x.d) % p)
        if conj != negated:
            raise AssertionError("conjugation by i is not negation on the nilradical")
        parts[frozenset({x, conj})] = None
    partition = tuple(parts)
    if len(partition) != (p + 1) // 2 or any(len(part) != 2 for part in partition):
        raise AssertionError("class does not split into (p+1)/2 pairs")
    return partition


def class_count(p: int, aut_order: int) -> tuple[int, int]:
    """((p+1)/i, 2(p+1)/i) with i = aut_order / 2: CM classes per ramified
    quadratic extension of Q_p, and in total."""
    if aut_order not in (2, 4, 6):
        raise ValueError("automorphism group order must be 2, 4 or 6")
    i = aut_order // 2
    if (p + 1) % i:
        raise ValueError(f"{i} does not divide p + 1 = {p + 1}")
    per_extension = (p + 1) // i
    return per_extension, 2 * per_extension

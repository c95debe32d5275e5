"""Exact verification of the finite endomorphism-algebra combinatorics.

Both algebras of section 3.4 are quaternion algebras (a, b), i^2 = a,
j^2 = b, ij = k = -ji, with one product `quaternion_product` and one
`reduced_norm`.  Abar_p = F_p[i, eps_j, eps_k] is (alpha, 0) over F_p, alpha
a non-residue, eps_j = j and eps_k = k: the eps's square and multiply to 0,
and i eps_j = eps_k = -eps_j i.  The p = 7 example lives in (-1, -7) over Q,
which reduces mod 7 to Abar_7 with alpha = -1.  The unit group
F_{p^2}^* = F_p[i]^* acts on the nilradical {c eps_j + d eps_k} by
conjugation.  Writing a nilpotent as z eps_j with z = c + d*i, conjugation
by g is multiplication by g / conj(g), so the stabilizers (F_p^*), the
orbit sizes (p + 1) and the invariant c^2 - alpha d^2 (the norm of z)
follow from one pass over F_{p^2}^*; see `orbit_analysis`.  Nothing is
sampled.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from . import CertificateError, is_prime, legendre_symbol

if TYPE_CHECKING:
    from .exactmath.poly import SymbolicPolynomial


class AbarElement(NamedTuple):
    """a + b*i + c*eps_j + d*eps_k with coordinates in F_p."""

    a: int
    b: int
    c: int
    d: int


class AlgebraParams(NamedTuple("AlgebraParams", [("p", int), ("alpha", int)])):
    __slots__ = ()

    def __new__(cls, p: int, alpha: int):
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        if legendre_symbol(alpha, p) != -1:
            raise ValueError(f"{alpha} is not a quadratic non-residue mod {p}")
        return super().__new__(cls, p, alpha)


def smallest_nonresidue(p: int) -> int:
    for candidate in range(2, p):
        if legendre_symbol(candidate, p) == -1:
            return candidate
    raise ValueError(f"no non-residue found mod {p}")


def quaternion_product(x, y, a, b):
    """x * y in the quaternion algebra (a, b) on the basis (1, i, j, k):
    i^2 = a, j^2 = b, ij = k = -ji, hence ik = a j, jk = -b i, k^2 = -ab.
    Works over any commutative coefficient ring (integers, Fractions or
    polynomials) and reduces nothing."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 + b * (x3 * y2 - x2 * y3),
        x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def reduced_norm(x, a, b):
    """x * conj(x) in (a, b), where conj negates the i, j and k parts."""
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def multiply(x: AbarElement, y: AbarElement, params: AlgebraParams) -> AbarElement:
    """Product in Abar_p, the quaternion algebra (alpha, 0) reduced mod p."""
    p = params.p
    one, i, j, k = quaternion_product(x, y, params.alpha, 0)
    return AbarElement(one % p, i % p, j % p, k % p)


def unit_inverse(x: AbarElement, params: AlgebraParams) -> AbarElement:
    """conj(x) / N(x); x is a unit iff its reduced norm a^2 - alpha b^2 is
    nonzero mod p."""
    p = params.p
    norm = reduced_norm(x, params.alpha, 0) % p
    if norm == 0:
        raise ZeroDivisionError("element is not a unit")
    inv = pow(norm, -1, p)
    a, b, c, d = x
    return AbarElement(a * inv % p, -b * inv % p, -c * inv % p, -d * inv % p)


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
            raise CertificateError(f"associativity fails on {bi}, {bj}, {bk}")
    return table


def orbit_analysis(
    params: AlgebraParams, table: dict[tuple[int, int], tuple[int, int, int, int]]
) -> tuple[tuple[int, AbarElement, int], ...]:
    """Conjugation orbits of F_{p^2}^* on the nonzero nilradical, certified
    from the algebra's structure in O(p^2) operations, as (size,
    representative, c^2 - alpha d^2) triples.

    Write c eps_j + d eps_k = z eps_j with z = c + d*i.  The basis identities
    i eps_j = eps_k = -eps_j i, checked on `table` (the structure constants
    that `build_algebra(params)` certified), give eps_j g = conj(g) eps_j by
    bilinearity, so g (z eps_j) g^-1 = (g / conj(g)) z eps_j: conjugation by
    g is multiplication by u = g / conj(g).  One pass over F_{p^2}^*
    verifies that the kernel of g -> u is F_p^* (every stabilizer, since z
    is a unit) and that the image has p + 1 elements of norm 1, hence is the
    whole norm-one group.  The orbits are therefore the fibres of the
    invariant N(z) = c^2 - alpha d^2, verified to be p - 1 fibres of size
    p + 1.  Any failure raises CertificateError.
    """
    p, alpha = params.p, params.alpha
    if table[(1, 2)] != (0, 0, 0, 1) or table[(2, 1)] != (0, 0, 0, p - 1):
        raise CertificateError("i eps_j = eps_k = -eps_j i fails on the basis")
    one = AbarElement(1, 0, 0, 0)
    kernel: list[AbarElement] = []
    image: set[AbarElement] = set()
    for a, b in itertools.product(range(p), repeat=2):
        if (a, b) == (0, 0):
            continue
        g, conjugate = AbarElement(a, b, 0, 0), AbarElement(a, -b % p, 0, 0)
        conjugate_inverse = unit_inverse(conjugate, params)
        if multiply(conjugate, conjugate_inverse, params) != one:
            raise CertificateError(f"unit_inverse({conjugate}) is not an inverse")
        u = multiply(g, conjugate_inverse, params)
        if u == one:
            kernel.append(g)
        image.add(u)
    if len(kernel) != p - 1 or any(g.b != 0 for g in kernel):
        raise CertificateError(f"stabilizer {kernel} is not F_p^*")
    if len(image) != p + 1 or any(reduced_norm(u, alpha, 0) % p != 1 for u in image):
        raise CertificateError("g / conj(g) does not run over the p + 1 units of norm 1")
    fibres: dict[int, list[AbarElement]] = {}
    for c, d in itertools.product(range(p), repeat=2):
        if (c, d) != (0, 0):
            norm = reduced_norm((c, d, 0, 0), alpha, 0) % p  # N(c + d*i)
            fibres.setdefault(norm, []).append(AbarElement(0, 0, c, d))
    if len(fibres) != p - 1 or any(len(fibre) != p + 1 for fibre in fibres.values()):
        raise CertificateError(f"expected p - 1 fibres of size p + 1, found {len(fibres)}")
    return tuple((len(fibre), fibre[0], norm) for norm, fibre in fibres.items())


# -- the p = 7 worked example ------------------------------------------------

#: (a, b) of the rational quaternions of examples 3.4.2-3.4.3; reduced mod 7
#: they give Abar_7 with alpha = -1, which is EXAMPLE_PARAMS
EXAMPLE_QUATERNIONS = (-1, -7)
EXAMPLE_PARAMS = AlgebraParams(7, EXAMPLE_QUATERNIONS[0] % 7)  # the identification i -> i


def quaternion_square_symbolic() -> tuple[SymbolicPolynomial, ...]:
    """(a + bi + cj + dk)^2 in the rational quaternions with i^2 = -1,
    j^2 = -7, ij = -ji = k, as polynomials in a, b, c, d.  Only this check
    loads the symbolic kit, so the ledger suite, which reads `class_count`,
    loads no `exactmath` module."""
    from .exactmath.poly import sym

    a, b, c, d = sym("a"), sym("b"), sym("c"), sym("d")
    components = quaternion_product((a, b, c, d), (a, b, c, d), *EXAMPLE_QUATERNIONS)
    expected = (
        a**2 - b**2 - 7 * c**2 - 7 * d**2,
        2 * a * b,
        2 * a * c,
        2 * a * d,
    )
    if tuple(components) != expected:
        raise CertificateError("quaternion square does not reduce to the stated form")
    return expected


def uniformizer_image_search() -> tuple[AbarElement, ...]:
    """Possible images in Abar_7 of the uniformizer u = 2*sqrt(-7).

    u^2 = -28, so an integral a + bi + cj + dk squaring to -28 forces a = 0
    (the cross terms 2a(b, c, d) must vanish and a^2 = -28 is impossible) and
    then b^2 + 7c^2 + 7d^2 = 28 forces b = 0 mod 7; reducing mod 7 leaves
    exactly the nilpotents with c^2 + d^2 = 4 in F_7.
    """
    quaternion_square_symbolic()  # raises unless u^2 has the form used above
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
        raise CertificateError("enumerated class differs from the expected 8 elements")
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
            raise CertificateError("conjugation by i is not negation on the nilradical")
        parts[frozenset({x, conj})] = None
    partition = tuple(parts)
    if len(partition) != (p + 1) // 2 or any(len(part) != 2 for part in partition):
        raise CertificateError("class does not split into (p+1)/2 pairs")
    return partition


def class_count(p: int, aut_order: int) -> int:
    """(p+1)/i with i = aut_order / 2: the CM classes per ramified quadratic
    extension of Q_p; the two ramified extensions give 2(p+1)/i in total."""
    if aut_order not in (2, 4, 6):
        raise ValueError("automorphism group order must be 2, 4 or 6")
    i = aut_order // 2
    if (p + 1) % i:
        raise ValueError(f"{i} does not divide p + 1 = {p + 1}")
    return (p + 1) // i

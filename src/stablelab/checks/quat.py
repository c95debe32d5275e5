"""Quaternion suite: lemma 3.4.1 and examples 3.4.2-3.4.3 in
F_p[i, eps_j, eps_k]."""

from __future__ import annotations

from functools import partial

from .. import CertificateError, quatlab
from ..exactmath.poly import sym
from . import DEFAULT_PRIMES, Check, Config, once


def _algebra(p: int):
    """The algebra at p, alpha its smallest non-residue, and the structure
    constants that `build_algebra` certified for it."""
    params = quatlab.AlgebraParams(p, quatlab.smallest_nonresidue(p))
    return params, quatlab.build_algebra(params)


def _check_algebra(p: int, algebra):
    (_, alpha), table = algebra(p)
    if table[(1, 2)] != (0, 0, 0, 1):
        raise CertificateError("i * eps_j != eps_k")
    if table[(2, 3)] != (0, 0, 0, 0) or table[(2, 2)] != (0, 0, 0, 0):
        raise CertificateError("nilpotent products do not vanish")
    if table[(1, 3)] != (0, 0, alpha % p, 0):
        raise CertificateError("i * eps_k != alpha * eps_j")
    return f"alpha = {alpha}: relations hold, associativity exhaustive on basis"


def _check_orbits(p: int, algebra):
    orbits = quatlab.orbit_analysis(*algebra(p))
    return (
        f"{len(orbits)} orbits of size {p + 1}; stabilizers F_p^*; "
        "invariant c^2 - alpha*d^2 separates classes"
    )


def _check_uniformizer():
    found = quatlab.uniformizer_image_search()
    return (
        "image class is exactly {+-2eps_j, +-2eps_k, +-3eps_j +- 3eps_k} "
        f"({len(found)} elements)"
    )


def _check_refinement():
    parts = quatlab.aut_refinement()
    return f"conjugation by i splits the class into {len(parts)} pairs x, -x"


def _check_class_counts():
    cases = {(7, 4): 8, (5, 6): 4, (13, 2): 28}
    for (p, aut), expected in cases.items():
        if 2 * quatlab.class_count(p, aut) != expected:
            raise CertificateError(f"2 * class_count({p}, {aut}) != {expected}")
    counts = ", ".join(map(str, cases.values()))
    pairs = ", ".join(f"({p},{aut})" for p, aut in cases)
    return f"2(p+1)/i equals {counts} for (p, |Aut|) = {pairs}"


def _check_quaternion_norm():
    a, b = quatlab.EXAMPLE_QUATERNIONS
    norm = partial(quatlab.reduced_norm, a=a, b=b)
    x, y = (tuple(sym(f"{name}{n}") for name in "abcd") for n in (1, 2))
    if norm(quatlab.quaternion_product(x, y, a, b)) != norm(x) * norm(y):
        raise CertificateError("N(xy) - N(x)N(y) is not the zero polynomial")
    return "norm a^2 + b^2 + 7c^2 + 7d^2 multiplicative as a polynomial identity"


def suite(config: Config) -> list[Check]:
    primes = config.primes if config.primes is not None else DEFAULT_PRIMES
    algebra = once(_algebra)
    checks = []
    for p in primes:
        checks.append(Check(f"lemma-3.4.1-algebra-p{p:02d}", "lemma 3.4.1",
                            partial(_check_algebra, p, algebra)))
        checks.append(Check(f"lemma-3.4.1-orbits-p{p:02d}", "lemma 3.4.1",
                            partial(_check_orbits, p, algebra)))
    checks += [
        Check("example-3.4.2-uniformizer", "example 3.4.2", _check_uniformizer),
        Check("example-3.4.3-refinement", "example 3.4.3", _check_refinement),
        Check("class-count-2p1i", "section 3.4 class count", _check_class_counts),
        Check("quaternion-norm", "example 3.4.2", _check_quaternion_norm),
    ]
    return checks

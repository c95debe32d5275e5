"""Genus and census bookkeeping for X0(N) and the conjectural X0(p^3) picture.

Implements the classical genus formula for X0(N), the supersingular class
survey with automorphism orders (checked against the Eichler mass formula),
a per-prime component budget that the conjectural stable-model components
must fit into, and a dual-graph genus calculator for user-supplied
configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import is_prime

F = Fraction


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list[int]:
    divs = [1]
    for prime, mult in _factorize(n).items():
        divs = [d * prime**k for d in divs for k in range(mult + 1)]
    return sorted(divs)


def _euler_phi(n: int) -> int:
    out = n
    for prime in _factorize(n):
        out = out // prime * (prime - 1)
    return out


def genus_x0(N: int) -> int:
    """Genus of X0(N): 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2."""
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return 0
    primes = list(_factorize(N))
    mu = N
    for p in primes:
        mu = mu // p * (p + 1)

    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in primes:
            nu2 *= 1 + _kronecker_minus1(p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in primes:
            nu3 *= 1 + _kronecker_minus3(p)
    nu_inf = sum(_euler_phi(math.gcd(d, N // d)) for d in _divisors(N))

    genus = 1 + F(mu, 12) - F(nu2, 4) - F(nu3, 3) - F(nu_inf, 2)
    assert genus.denominator == 1 and genus >= 0
    return int(genus)


def _kronecker_minus1(p: int) -> int:
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def _kronecker_minus3(p: int) -> int:
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


# -- supersingular survey -----------------------------------------------------


@dataclass(frozen=True)
class SSClassSurvey:
    p: int
    entries: tuple[tuple[int, int], ...]  # (|Aut|, number of curves)
    mass: Fraction


def ss_survey(p: int) -> SSClassSurvey:
    """Supersingular curves over F_p-bar counted by automorphism order.

    j = 0 is supersingular iff p = 2 mod 3 (|Aut| = 6), j = 1728 iff
    p = 3 mod 4 (|Aut| = 4); the rest have |Aut| = 2, with the count fixed
    by the Eichler mass formula sum 1/|Aut| = (p-1)/24.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("survey needs a prime p > 3")
    has6 = 1 if p % 3 == 2 else 0
    has4 = 1 if p % 4 == 3 else 0
    rest = F(p - 1, 12) - F(has4, 2) - F(has6, 3)
    if rest.denominator != 1 or rest < 0:
        raise AssertionError("mass bookkeeping failed")
    entries = []
    if rest:
        entries.append((2, int(rest)))
    if has4:
        entries.append((4, 1))
    if has6:
        entries.append((6, 1))
    survey = SSClassSurvey(p, tuple(entries), sum(F(n, a) for a, n in entries))
    if survey.mass != F(p - 1, 24):
        raise AssertionError("Eichler mass formula violated")
    return survey


def supersingular_j_invariants(p: int) -> tuple[int, ...]:
    """Supersingular j-invariants in F_p, by brute-force point counting.

    A curve over F_p with p >= 5 is supersingular iff #E(F_p) = p + 1.
    """
    if p < 5 or not is_prime(p):
        raise ValueError("need a prime p >= 5")

    def curve_for_j(j: int) -> tuple[int, int]:
        if j % p == 0:
            return 0, 1
        if j % p == 1728 % p:
            return 1, 0
        k = j * pow(1728 - j, -1, p) % p
        return 3 * k % p, 2 * k % p

    out = []
    squares = {(x * x) % p for x in range(p)}
    for j in range(p):
        a, b = curve_for_j(j)
        count = p + 1
        for xx in range(p):
            rhs = (xx * xx * xx + a * xx + b) % p
            if rhs == 0:
                continue
            count += 1 if rhs in squares else -1
        if count == p + 1:
            out.append(j)
    return tuple(out)


# -- component budgets -------------------------------------------------------


@dataclass(frozen=True)
class SSComponentLine:
    aut_order: int
    curve_count: int
    cm_components: int  # 2(p+1)/i per curve
    cm_genus: int  # (p-1)/2 per component
    edixhoven_genus: int


@dataclass(frozen=True)
class ComponentBudget:
    p: int
    lines: tuple[SSComponentLine, ...]
    ordinary_genera: tuple[int, ...]
    total_known: int
    curve_genus: int
    exact: bool


def component_budget(
    p: int,
    g_edixhoven: int = 0,
    ordinary_genera: Sequence[int] | None = None,
) -> ComponentBudget:
    """Genus budget for the conjectural components of X0(p^3).

    Per supersingular curve with i = |Aut|/2: one genus-0 component over the
    Atkin-Lehner circle, two copies of the Edixhoven component (genus
    configurable, default 0), and 2(p+1)/i components of genus (p-1)/2 each;
    plus the six ordinary components (genera configurable, default 0).  The
    known total must not exceed the genus of X0(p^3); for p = 5 with the
    default inputs it is exactly 8 = 4 * 2.
    """
    survey = ss_survey(p)
    ordinary = tuple(ordinary_genera) if ordinary_genera is not None else (0,) * 6
    lines = []
    total = 0
    for aut_order, count in survey.entries:
        i = aut_order // 2
        if (p + 1) % i:
            raise ValueError(f"i = {i} does not divide p + 1")
        cm_components = 2 * (p + 1) // i
        cm_genus = (p - 1) // 2
        lines.append(SSComponentLine(aut_order, count, cm_components, cm_genus, g_edixhoven))
        total += count * (cm_components * cm_genus + 2 * g_edixhoven)
    total += sum(ordinary)
    curve_genus = genus_x0(p**3)
    if total > curve_genus:
        raise ValueError(
            f"component budget {total} exceeds the genus {curve_genus} of X0({p**3})"
        )
    return ComponentBudget(
        p, tuple(lines), ordinary, total, curve_genus, exact=total == curve_genus
    )


# -- dual graphs --------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    vertices: tuple[tuple[str, int], ...]  # (id, genus)
    edges: tuple[tuple[str, str], ...]


def parse_graph_spec(text: str) -> GraphSpec:
    """Plain-text graph: `vertex <id> <genus>` lines, then `edge <id> <id>`."""
    vertices: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 3:
            vertices.append((parts[1], int(parts[2])))
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"bad graph line {lineno}: {raw!r}")
    return GraphSpec(tuple(vertices), tuple(edges))


def graph_genus(spec: GraphSpec) -> int:
    """Arithmetic genus of a connected configuration:
    sum of vertex genera plus the first Betti number |E| - |V| + 1."""
    ids = [v for v, _ in spec.vertices]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate vertex ids")
    index = {v: i for i, v in enumerate(ids)}
    for a, b in spec.edges:
        if a not in index or b not in index:
            raise ValueError(f"edge references unknown vertex: {(a, b)}")
    if not ids:
        raise ValueError("empty graph")
    # connectivity by union-find
    parent = list(range(len(ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in spec.edges:
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            parent[ra] = rb
    if len({find(i) for i in range(len(ids))}) != 1:
        raise ValueError("graph is not connected")
    return sum(g for _, g in spec.vertices) + len(spec.edges) - len(ids) + 1

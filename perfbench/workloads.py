"""The two workloads: what each verifier process runs, and the seeded draw.

Every workload is a closed loop with one client: the next verifier process
starts only after the previous one has exited.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import oracle

#: Every discriminant D outside tables 3-4 with D = 0, 1 (mod 4), 5 || D,
#: |D| < 700 and class number h in {4, 6, 8}, as (D, h).  Frozen here so the
#: draw never calls the program; each D satisfies the hypothesis of
#: conjecture 3.3.1, so each drawn congruence check must pass.
CM_POOL = (
    (-95, 8), (-135, 6), (-140, 6), (-155, 4), (-195, 4), (-220, 4), (-240, 4),
    (-295, 8), (-315, 4), (-320, 8), (-340, 4), (-355, 4), (-360, 8), (-380, 8),
    (-395, 8), (-420, 8), (-435, 4), (-460, 6), (-480, 8), (-515, 6), (-520, 4),
    (-540, 6), (-555, 4), (-580, 8), (-595, 4), (-640, 8), (-660, 8),
)

#: Discriminants each cm-draw process takes from each class-number stratum,
#: so every process has the same h histogram.  Costs still differ by the D
#: drawn; dealing each stratum in order makes a run cover most of the pool.
DRAW_PER_CLASS_NUMBER = {4: 1, 6: 1, 8: 1}

WHY = {
    "verify-all": "the bare `verify all` users run, cold: class-polynomial "
    "construction in cmlab dominates and each table H_D is built three times",
    "cm-draw": "`verify cm --p 5` on seeded discriminants outside the paper's "
    "tables, one build and one cache store per D, no build shared with a row check",
}
WORKLOADS = tuple(WHY)


def draw_stream(seed: int):
    """Endless seeded sequence of discriminant lists, one per cm-draw process.

    Each stratum (class number) is shuffled once by the seed and then dealt
    in order, so consecutive processes see different discriminants.
    """
    rng = random.Random(seed)
    strata = {}
    for h in sorted(DRAW_PER_CLASS_NUMBER):
        members = [d for d, hd in CM_POOL if hd == h]
        rng.shuffle(members)
        strata[h] = members
    for i in itertools.count():
        drawn = []
        for h, members in strata.items():
            k = DRAW_PER_CLASS_NUMBER[h]
            drawn += [members[(i * k + j) % len(members)] for j in range(k)]
        yield sorted(drawn, reverse=True)


def class_number_histogram(discs) -> dict[int, int]:
    h_of = dict(CM_POOL)
    return dict(sorted(Counter(h_of[d] for d in discs).items()))


def invocations(workload: str, draw=None, cache_dir=None):
    """[(argv for `verify`, expected verdicts)] for one verifier process.

    The caller appends ``--report PATH`` to each argv.
    """
    if workload == "verify-all":
        return [(["all"], oracle.suite_verdicts("all"))]
    if workload == "cm-draw":
        discs = ",".join(str(d) for d in draw)
        expected = oracle.expected_verdicts(oracle.congruence_id(d) for d in draw)
        return [(["cm", "--p", "5", f"--disc={discs}", "--cache-dir", cache_dir], expected)]
    raise ValueError(f"unknown workload {workload!r}")

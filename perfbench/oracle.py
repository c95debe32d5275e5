"""Expected verdicts, written from the paper's claims, and failure accounting.

The tables below are the specification the benchmark holds the verifier to.
They are written by hand from the paper's tables, claims and conjectures and
from the known discrepancy recorded in the ROADMAP; nothing here is read from
a run of the program.  Every check passes except the x-distance claim 2.2.2:
the exact computation gives {1/2 x80, 7/10 x10} instead of the published
{1/2 x90}, and the verifier must report that as a fail.
"""

from __future__ import annotations

from typing import Iterable

PASS, FAIL = "pass", "fail"

#: The known discrepancy: (check id, text its details must contain).
X_DISTANCE_ID = "claim-2.2.2-x-distances"
X_DISTANCE_MULTISET = "1/2 x80, 7/10 x10"

STABLE_MODEL = (
    "table-1-match",
    "ramification-valuation-table",
    "claim-2.2.2-y-distances",
    X_DISTANCE_ID,
    "claim-2.1.1-dominance",
    "claim-2.1.1-reduction",
    "claim-2.2.1-hensel",
    "claim-2.3.2-reduction",
    "claim-2.3.1-z-identity",
)
MAPS = (
    "table-2-transcription",
    "al-involutions",
    "note-3.1.3-al-circles",
    "claim-3.1.2-u-circle-image",
    "claim-3.1.2-j-circle-image",
    "claim-3.1.1-j-disk-image",
    "claim-3.1.2-ramification-image",
    "claim-3.1.2-cm-disks",
)
SS = (
    "claim-3.2.1-division-polynomial",
    "claim-3.2.1-breakpoint",
    "claim-3.2.1-profile-below",
    "claim-3.2.1-profile-above",
    "claim-3.2.1-threshold",
)

#: Tables 3-4: the twelve example orders for p = 5 (case 1, then case 2).
TABLE_DISCRIMINANTS = (-20, -80, -180, -120, -55, -280, -40, -160, -15, -60, -35, -260)
#: Conjectures 3.3.2 (p = 7) and 3.3.3 (p = 13): one order per case.
EXTRA_DISCRIMINANTS = {7: (-28, -84), 13: (-52, -104)}
CONJECTURE = {5: "conjecture-3.3.1", 7: "conjecture-3.3.2", 13: "conjecture-3.3.3"}


def congruence_id(disc: int, p: int = 5) -> str:
    return f"{CONJECTURE[p]}-D{abs(disc):04d}-congruence"


def row_id(disc: int) -> str:
    return f"{CONJECTURE[5]}-D{abs(disc):04d}-row"


CM = tuple(
    check
    for disc in TABLE_DISCRIMINANTS
    for check in (row_id(disc), congruence_id(disc))
) + tuple(congruence_id(d, p) for p, discs in EXTRA_DISCRIMINANTS.items() for d in discs)

QUAT_PRIMES = (5, 7, 13, 17)
QUAT = tuple(
    f"lemma-3.4.1-{kind}-p{p:02d}" for p in QUAT_PRIMES for kind in ("algebra", "orbits")
) + (
    "example-3.4.2-uniformizer",
    "example-3.4.3-refinement",
    "class-count-2p1i",
    "quaternion-norm",
)
LEDGER = (
    tuple(f"genus-{p**3}" for p in QUAT_PRIMES)
    + ("mass-formula",)
    + tuple(f"{kind}-p{p:02d}" for p in QUAT_PRIMES for kind in ("survey", "budget"))
    + ("exponent-center-crosscheck",)
)

SUITE_CHECKS = {
    "stable-model": STABLE_MODEL,
    "maps": MAPS,
    "ss": SS,
    "cm": CM,
    "quat": QUAT,
    "ledger": LEDGER,
}


def expected_verdicts(ids: Iterable[str]) -> dict[str, tuple[str, str | None]]:
    """{check id: (status, text the details must contain or None)}."""
    table = {}
    for check in ids:
        if check == X_DISTANCE_ID:
            table[check] = (FAIL, X_DISTANCE_MULTISET)
        else:
            table[check] = (PASS, None)
    return table


def suite_verdicts(suite: str) -> dict[str, tuple[str, str | None]]:
    if suite == "all":
        return expected_verdicts(c for checks in SUITE_CHECKS.values() for c in checks)
    return expected_verdicts(SUITE_CHECKS[suite])


def expected_exit_code(expected: dict[str, tuple[str, str | None]]) -> int:
    return 1 if any(status == FAIL for status, _ in expected.values()) else 0


def score(expected, report, exit_code) -> tuple[int, int, list[str]]:
    """Grade one report against the oracle: (attempted, failed, problems).

    ``report`` is the parsed JSON report, or None when the process left none.
    A check fails when its status differs from the oracle, when its details
    say ``internal error``, when the oracle's required text is absent, or when
    its id is missing or unexpected.  A crashed process, or one whose exit
    code contradicts the expected verdict, fails every check it owed.
    """
    attempted = len(expected)
    if report is None:
        return attempted, attempted, ["no report"]
    problems = []
    seen = set()
    for check in report.get("checks", ()):
        cid = check.get("id")
        if cid not in expected or cid in seen:
            attempted += 1
            problems.append(f"{cid}: unexpected")
            continue
        seen.add(cid)
        status, must_contain = expected[cid]
        details = str(check.get("details", ""))
        if check.get("status") != status:
            problems.append(f"{cid}: {check.get('status')} (expected {status})")
        elif "internal error" in details:
            problems.append(f"{cid}: internal error")
        elif must_contain is not None and must_contain not in details:
            problems.append(f"{cid}: details lack {must_contain!r}")
    problems += [f"{cid}: missing" for cid in expected if cid not in seen]
    if exit_code != expected_exit_code(expected):
        return attempted, attempted, problems + [f"exit code {exit_code}"]
    return attempted, len(problems), problems

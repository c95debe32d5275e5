"""Machine-readable pass/fail ledger produced by the verification suites."""

from __future__ import annotations

import json
from typing import NamedTuple

#: Anchor strings a check may cite; each names a table, claim, conjecture,
#: lemma, example, equation block or section of the verified development.
KNOWN_ANCHORS = frozenset(
    {
        "table 1",
        "table 2",
        "tables 3-4",
        "eq 1-2",
        "eq 3",
        "eq 4",
        "eq 6",
        "section 2.2",
        "section 2 genus",
        "section 3.4 class count",
        "claim 2.1.1",
        "claim 2.2.1",
        "claim 2.2.2",
        "claim 2.3.1",
        "claim 2.3.2",
        "claim 3.1.1",
        "claim 3.1.2",
        "note 3.1.3",
        "claim 3.2.1",
        "conjecture 3.3.1",
        "conjecture 3.3.2",
        "conjecture 3.3.3",
        "lemma 3.4.1",
        "example 3.4.2",
        "example 3.4.3",
        "conjecture 3.4.5",
        "guess 3.4.6",
        "figures 2-6",
    }
)


class CheckResult(NamedTuple):
    id: str
    claim_ref: str
    status: str  # pass | fail
    details: str
    elapsed_ms: int


class SuiteReport(
    NamedTuple(
        "SuiteReport",
        [("suite", str), ("version", str), ("config", dict), ("results", tuple[CheckResult, ...])],
    )
):
    __slots__ = ()

    def __new__(cls, suite: str, version: str, config: dict, results):
        results = tuple(sorted(results, key=lambda r: r.id))
        if len({r.id for r in results}) != len(results):
            raise ValueError("duplicate check ids in report")
        return super().__new__(cls, suite, version, config, results)

    @property
    def overall(self) -> str:
        """A pass needs some checks, all of them passing: a suite that built
        none ran no check."""
        passed = self.results and all(r.status == "pass" for r in self.results)
        return "pass" if passed else "fail"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "overall": self.overall,
            "config": self.config,
            "checks": [r._asdict() for r in self.results],
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, ensure_ascii=True) + "\n"
        if fmt == "text":
            lines = [f"suite {self.suite} (version {self.version})"]
            for r in self.results:
                lines.append(
                    f"  {r.id} [{r.claim_ref}]: {r.status}"
                    + (f" - {r.details}" if r.details else "")
                    + f" ({r.elapsed_ms} ms)"
                )
            lines.append(f"overall: {self.overall}")
            return "\n".join(lines) + "\n"
        raise ValueError(f"unknown format {fmt!r}")

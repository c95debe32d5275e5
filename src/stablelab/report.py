"""Machine-readable pass/fail ledger produced by the verification suites."""

from __future__ import annotations

import json
from typing import NamedTuple


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

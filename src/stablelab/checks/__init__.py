"""The individual verification checks, grouped into suites.

A check compares a certificate with the paper's stated value and returns
the details of its pass.  A mismatch raises CertificateError with the
reason, from the check or from its layer, and the check lets a layer's
through: `cli.run_suite` turns a return into a pass and a CertificateError
into a fail with the reason as details, so a broken sibling never silences
the rest of a suite, and no module here spells a status.  Checks cite the
table / claim / conjecture they certify via the anchors in
report.KNOWN_ANCHORS.

Each suite is one module of this package (`stable_model`, `maps`, `ss`,
`cm`, `quat`, `ledger`), imported by its SUITES entry on first call, so a
process loads only the layers of the suites it runs.  Suite modules call
layers through module attributes (`cmlab.class_polynomial(...)`, never
`from ..cmlab import class_polynomial`): a tracer that rebinds a layer
function in the loaded modules before a suite module is imported still
wraps every call, whereas a name bound at that later import would escape it.

A value that several checks read is built at most once per run and passed
in: `suite(config)` wraps its builder in `once`, so the memo is made when
the suite is built and dies with the run, and the checks hand the value to
the layer functions as an argument.  A builder that raises is not run
again: every check that reads it gets the same exception.  No layer module
memoizes.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

T = TypeVar("T")


class Config(NamedTuple):
    """The verifier's settings, named as in the config file."""

    primes: tuple[int, ...] | None = None
    discriminants: tuple[int, ...] | None = None
    cache_dir: str | None = None


@dataclass(frozen=True)  # perfbench's tracer rebuilds a Check with dataclasses.replace
class Check:
    id: str
    claim_ref: str
    run: Callable[[], str]  # the pass details; a failure raises CertificateError


def once(builder: Callable[[], T]) -> Callable[[], T]:
    """The builder's value, or the exception it raised, kept for the run."""
    outcome: list = []

    def value() -> T:
        if not outcome:
            try:
                outcome.append((builder(), None))
            except Exception as error:
                outcome.append((None, error))
        result, error = outcome[0]
        if error is not None:
            raise error
        return result

    return value


def _lazy_suite(module: str) -> Callable[[Config], list[Check]]:
    def build(config: Config) -> list[Check]:
        return importlib.import_module(f"{__name__}.{module}").suite(config)

    return build


SUITES = {
    name: _lazy_suite(name.replace("-", "_"))
    for name in ("stable-model", "maps", "ss", "cm", "quat", "ledger")
}


def build_checks(suite: str, config: Config) -> list[Check]:
    if suite == "all":
        checks: list[Check] = []
        for build in SUITES.values():
            checks.extend(build(config))
        return checks
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](config)

"""Batch runner: `verify <suite>` executes a verification suite and writes a
machine-readable report.

Exit codes: 0 at least one check passed and none failed, 1 a check failed
or none ran (every check skipped, or the suite built none), 2 the
configuration could not be parsed or is invalid (an unknown config key, a
config number that is not a JSON integer, a discriminant that is not a
negative integer congruent to 0 or 1 mod 4, a prime that the selected suite
cannot use, or a cache_dir that exists and is not a directory) or the
--report path cannot be opened for writing, before any check runs; argparse
also exits 2 on an unknown option.  Checks run independently; one failure
never aborts its siblings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext

from . import CertificateError, __version__, is_prime
from .checks import CM_ANCHORS, SUITES, Config, build_checks
from .report import CheckResult, SuiteReport

SUITE_NAMES = (*SUITES, "all")
#: suite -> (least prime the suite can use, how to say so)
PRIME_FLOORS = {"quat": (3, "an odd prime"), "ledger": (5, "a prime p > 3")}


def run_suite(suite: str, config: Config, clock=time.monotonic) -> SuiteReport:
    """Run every check of the suite and assemble a deterministic report.

    This is the one place a failed certificate becomes a ``fail``: a
    CertificateError's reason is the check's details, and any other
    exception is reported as an internal error.  ``clock`` is injectable
    so reports can be made byte-identical across runs (timing is the only
    nondeterministic field).
    """
    results = []
    for check in build_checks(suite, config):
        started = clock()
        try:
            status, details = check.run()
        except CertificateError as exc:
            status, details = "fail", str(exc)
        except Exception as exc:  # a crashed check is a failed check
            status, details = "fail", f"internal error: {exc!r}"
        elapsed_ms = int((clock() - started) * 1000)
        results.append(
            CheckResult(check.id, check.claim_ref, status, details, elapsed_ms)
        )
    return SuiteReport(
        suite=suite,
        version=__version__,
        config=config._asdict(),
        results=tuple(results),
    )


def load_config_file(path: str) -> dict:
    """Read the JSON config document: one object whose keys are the Config
    field names."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a JSON object")
    unknown = sorted(set(raw) - set(Config._fields))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    return raw


def _build_config(args, file_config: dict) -> Config:
    def as_int(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return value

    def as_int_tuple(key, value):
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list of integers, got {value!r}")
        return tuple(as_int(key, v) for v in value)

    def as_distinct(key, value):  # deduped, order kept
        values = as_int_tuple(key, value)
        return None if values is None else tuple(dict.fromkeys(values))

    def as_disc_item(item):
        try:
            return int(item)
        except ValueError:
            raise ValueError(f"--disc takes comma-separated integers, got {item!r}") from None

    def as_discriminants(key, value):
        discs = as_distinct(key, value)
        for d in discs or ():
            if d >= 0 or d % 4 not in (0, 1):
                raise ValueError(f"{d} is not a negative integer congruent to 0 or 1 mod 4")
        return discs

    primes = as_distinct("primes", file_config.get("primes"))
    if args.p is not None:
        primes = (args.p,)
    supported = ", ".join(map(str, CM_ANCHORS))
    for p in primes or ():
        for suite, (least, need) in PRIME_FLOORS.items():
            if args.suite in (suite, "all") and (p < least or not is_prime(p)):
                raise ValueError(f"the {suite} suite needs {need}, got p = {p}")
        # under `all` such a prime still serves quat and ledger; cm adds no check
        if args.suite == "cm" and p not in CM_ANCHORS:
            raise ValueError(f"the cm suite needs one of the primes {supported}, got p = {p}")
    discriminants = file_config.get("discriminants")
    if args.disc is not None:
        discriminants = [as_disc_item(v) for v in args.disc.split(",")]
    discriminants = as_discriminants("discriminants", discriminants)
    cache_dir = file_config.get("cache_dir")
    if args.cache_dir is not None:
        cache_dir = args.cache_dir
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ValueError("cache_dir must be a string")
    if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise ValueError(f"cache_dir {cache_dir!r} exists and is not a directory")
    return Config(primes=primes, discriminants=discriminants, cache_dir=cache_dir)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the exact-arithmetic verification suites.",
    )
    parser.add_argument("suite", choices=SUITE_NAMES)
    parser.add_argument("--p", type=int, help="restrict prime-indexed checks to one prime")
    parser.add_argument(
        "--disc", help="comma-separated discriminants for the cm suite (overrides the config)"
    )
    parser.add_argument("--cache-dir", help="directory for the class-polynomial cache")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--report", help="write the report to this path")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold `--disc -52,-104` into `--disc=-52,-104` so argparse does not
    mistake the negative discriminants for an option."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--disc" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--disc={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(list(argv)))
    try:
        file_config = load_config_file(args.config) if args.config else {}
        config = _build_config(args, file_config)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    destination = nullcontext(sys.stdout)
    if args.report:
        try:
            destination = open(args.report, "w", encoding="utf-8")
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
    with destination as out:
        report = run_suite(args.suite, config)
        out.write(report.render(args.format))
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

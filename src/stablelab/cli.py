"""Batch runner: `verify <suite>` executes a verification suite and writes a
machine-readable report.

Exit codes: 0 all checks passed, 1 at least one check failed or the suite
built no check, 2 the configuration could not be parsed or is invalid (a
config number that is not a JSON integer, a discriminant that is not a
negative integer congruent to 0 or 1 mod 4, or a prime that the quat or
ledger suite cannot use).
Checks run independently; one failure never aborts its siblings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .checks import Config, build_checks
from .exactmath import is_prime
from .report import CheckResult, SuiteReport

SUITE_NAMES = ("stable-model", "maps", "ss", "cm", "quat", "ledger", "all")
#: suite -> (least prime the suite can use, how to say so)
PRIME_FLOORS = {"quat": (3, "an odd prime"), "ledger": (5, "a prime p > 3")}


def run_suite(suite: str, config: Config, clock=time.monotonic) -> SuiteReport:
    """Run every check of the suite and assemble a deterministic report.

    ``clock`` is injectable so reports can be made byte-identical across runs
    (timing is the only nondeterministic field).
    """
    results = []
    for check in build_checks(suite, config):
        started = clock()
        try:
            status, details = check.run()
        except Exception as exc:  # a crashed check is a failed check
            status, details = "fail", f"internal error: {exc!r}"
        elapsed_ms = int((clock() - started) * 1000)
        results.append(
            CheckResult(check.id, check.claim_ref, status, details, elapsed_ms)
        )
    return SuiteReport(
        suite=suite,
        version=__version__,
        config=_config_echo(config),
        results=tuple(results),
    )


def _config_echo(config: Config) -> dict:
    return {
        "primes": list(config.primes) if config.primes is not None else None,
        "discriminants": {
            "case1": list(config.discriminants_case1 or ()) or None,
            "case2": list(config.discriminants_case2 or ()) or None,
            "override": list(config.disc_override or ()) or None,
        },
        "precision_bits": config.precision_bits,
        "cache_dir": config.cache_dir,
        "g_E": config.g_edixhoven,
        "ordinary_genera": list(config.ordinary_genera or ()) or None,
    }


def load_config_file(path: str) -> dict:
    """Read the JSON config document; dotted keys are accepted as a
    flattened alternative to nesting (`discriminants.case1`)."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a JSON object")
    nested: dict = {}
    for key, value in raw.items():
        target = nested
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ValueError(f"conflicting config key {key!r}")
        target[parts[-1]] = value
    return nested


def _build_config(args, file_config: dict) -> Config:
    disc_section = file_config.get("discriminants", {})
    if not isinstance(disc_section, dict):
        raise ValueError("discriminants must be a mapping with case1/case2")

    def as_int(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return value

    def as_int_tuple(key, value):
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list of integers, got {value!r}")
        return tuple(dict.fromkeys(as_int(key, v) for v in value))  # deduped, order kept

    def as_discriminants(key, value):
        discs = as_int_tuple(key, value)
        for d in discs or ():
            if d >= 0 or d % 4 not in (0, 1):
                raise ValueError(f"{d} is not a negative integer congruent to 0 or 1 mod 4")
        return discs

    primes = as_int_tuple("primes", file_config.get("primes"))
    if args.p is not None:
        primes = (args.p,)
    for suite, (least, need) in PRIME_FLOORS.items():
        for p in primes or ():
            if args.suite in (suite, "all") and (p < least or not is_prime(p)):
                raise ValueError(f"the {suite} suite needs {need}, got p = {p}")
    disc_override = None
    if args.disc is not None:
        disc_override = as_discriminants("--disc", [int(v) for v in args.disc.split(",")])
    precision = file_config.get("precision_bits")
    if args.precision is not None:
        precision = args.precision
    if precision is not None:
        if as_int("precision_bits", precision) <= 0:
            raise ValueError(f"precision_bits must be a positive integer, got {precision}")
    cache_dir = file_config.get("cache_dir")
    if args.cache_dir is not None:
        cache_dir = args.cache_dir
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ValueError("cache_dir must be a string")
    return Config(
        primes=primes,
        discriminants_case1=as_discriminants("discriminants.case1", disc_section.get("case1")),
        discriminants_case2=as_discriminants("discriminants.case2", disc_section.get("case2")),
        disc_override=disc_override,
        precision_bits=precision,
        cache_dir=cache_dir,
        g_edixhoven=as_int("g_E", file_config.get("g_E", 0)),
        ordinary_genera=as_int_tuple("ordinary_genera", file_config.get("ordinary_genera")),
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the exact-arithmetic verification suites.",
    )
    parser.add_argument("suite", choices=SUITE_NAMES)
    parser.add_argument("--p", type=int, help="restrict prime-indexed checks to one prime")
    parser.add_argument("--disc", help="comma-separated discriminants for the cm suite")
    parser.add_argument("--precision", type=int, help="base precision in bits")
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
    report = run_suite(args.suite, config)
    rendered = report.render(args.format)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

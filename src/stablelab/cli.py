"""Batch runner: `verify <suite>` executes a verification suite and writes a
machine-readable report.

Exit codes: 0 at least one check ran and every check passed, 1 a check
failed or the suite built none, 2 the command line or the configuration
could not be parsed or is invalid, before any check runs.  A bad command
line (no suite or an unknown one, an unknown or ambiguous option, an option
without its value or given twice, a --p that is not an integer, a --format
other than json or text) raises SystemExit(2) after the usage line on
stderr; --help prints the usage line and exits 0.  The other exits 2 print
one line: an unknown config key, an empty config list, a config number that
is not a JSON integer, a discriminant that is not a negative integer
congruent to 0 or 1 mod 4, a prime that the selected suite cannot use,
--disc given to a suite that reads no discriminants, a discriminant that no
cm prime of the cm or all suite divides exactly once, a cache_dir that
exists and is not a directory, or a --report path that cannot be opened for
writing.  Checks run independently; one failure never aborts its siblings.
"""

from __future__ import annotations

import getopt
import json
import os
import sys
import time
from collections import namedtuple
from contextlib import nullcontext

from . import CM_CONGRUENCES, CertificateError, __version__, divides_once, is_prime
from .checks import SUITES, Config, build_checks
from .report import CheckResult, SuiteReport

SUITE_NAMES = (*SUITES, "all")
#: suite -> (least prime the suite can use, how to say so)
PRIME_FLOORS = {"quat": (3, "an odd prime"), "ledger": (5, "a prime p > 3")}
#: suites stated at p = 5 alone; they read no prime
P5_SUITES = ("stable-model", "maps", "ss")


def run_suite(suite: str, config: Config, clock=time.monotonic) -> SuiteReport:
    """Run every check of the suite and assemble a deterministic report.

    This is the one place a status is decided: a check that returns passes
    with the returned details, a CertificateError is a ``fail`` with its
    reason as the details, and any other exception is reported as an
    internal error.  ``clock`` is injectable so reports can be made
    byte-identical across runs (timing is the only nondeterministic field).
    """
    results = []
    for check in build_checks(suite, config):
        started = clock()
        try:
            status, details = "pass", check.run()
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
        if not value:
            raise ValueError(f"{key} must list at least one integer")
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
    supported = ", ".join(map(str, CM_CONGRUENCES))
    for p in primes or ():
        for suite, (least, need) in PRIME_FLOORS.items():
            if args.suite in (suite, "all") and (p < least or not is_prime(p)):
                raise ValueError(f"the {suite} suite needs {need}, got p = {p}")
        # under `all` such a prime still serves quat and ledger; cm adds no check
        if args.suite == "cm" and p not in CM_CONGRUENCES:
            raise ValueError(f"the cm suite needs one of the primes {supported}, got p = {p}")
        if args.suite in P5_SUITES and p != 5:
            raise ValueError(f"the {args.suite} suite is stated at p = 5 only, got p = {p}")
    discriminants = file_config.get("discriminants")
    if args.disc is not None:
        if args.suite not in ("cm", "all"):
            raise ValueError(f"the {args.suite} suite reads no discriminants, got --disc")
        discriminants = [as_disc_item(v) for v in args.disc.split(",")]
    discriminants = as_discriminants("discriminants", discriminants)
    if args.suite in ("cm", "all"):
        cm_primes = [p for p in primes or CM_CONGRUENCES if p in CM_CONGRUENCES]
        for d in discriminants or ():
            if not any(divides_once(p, d) for p in cm_primes):
                raise ValueError(f"the cm suite needs a discriminant that one of its "
                                 f"primes {cm_primes} divides exactly once, got {d}")
    cache_dir = file_config.get("cache_dir")
    if args.cache_dir is not None:
        cache_dir = args.cache_dir
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ValueError("cache_dir must be a string")
    if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise ValueError(f"cache_dir {cache_dir!r} exists and is not a directory")
    return Config(primes=primes, discriminants=discriminants, cache_dir=cache_dir)


#: a parsed `verify` command line; each field after the suite is a long option
Args = namedtuple("Args", "suite p disc cache_dir config report format",
                  defaults=(None, None, None, None, None, "json"))
#: getopt's long options; a trailing "=" marks one that takes a value
LONG_OPTIONS = (*(f"{field.replace('_', '-')}=" for field in Args._fields[1:]), "help")
USAGE = ("usage: verify [-h|--help] [--p P] [--disc D1,D2,...] [--cache-dir DIR]"
         f" [--config FILE] [--report PATH] [--format {{json,text}}] {{{','.join(SUITE_NAMES)}}}")


def parse_args(argv: list[str]) -> Args:
    """Read a `verify` command line; a bad one exits 2 after the usage line.
    GNU getopt takes options before or after the suite and unique prefixes
    (`--rep`), and hands an option its next argument verbatim (`--disc -52,-104`).
    """
    try:
        pairs, suites = getopt.gnu_getopt(argv, "h", LONG_OPTIONS)
        options = {}
        for name, value in pairs:
            key = name.lstrip("-").replace("-", "_")
            if key in options:
                raise getopt.GetoptError(f"{name} given twice")
            options[key] = value
        if "h" in options or "help" in options:
            print(USAGE)
            raise SystemExit(0)
        if len(suites) != 1 or suites[0] not in SUITE_NAMES:
            raise getopt.GetoptError(f"give one suite of {', '.join(SUITE_NAMES)}, got {suites}")
        if options.get("format", "json") not in ("json", "text"):
            raise getopt.GetoptError(f"--format takes json or text, got {options['format']!r}")
        if "p" in options:
            options["p"] = int(options["p"])
        return Args(suites[0], **options)
    except getopt.GetoptError as exc:  # callers match `unrecognized arguments: --x`
        unknown = exc.msg.endswith("not recognized")
        message = f"unrecognized arguments: {exc.msg.split()[1]}" if unknown else exc.msg
    except ValueError:
        message = f"--p takes an integer, got {options['p']!r}"
    print(f"{USAGE}\nverify: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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

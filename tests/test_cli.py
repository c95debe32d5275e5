import json
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stablelab import cli
from stablelab.checks import Config, build_checks


def run(suite, config=None):
    return cli.run_suite(suite, config or Config(), clock=lambda: 0.0)


def test_stable_model_suite_composition():
    report = run("stable-model")
    ids = [r.id for r in report.results]
    assert len(ids) == 9
    assert "table-1-match" in ids
    assert ids == sorted(ids)


def test_stable_model_known_failure_is_isolated():
    report = run("stable-model")
    by_id = {r.id: r for r in report.results}
    assert by_id["claim-2.2.2-x-distances"].status == "fail"
    assert "7/10 x10" in by_id["claim-2.2.2-x-distances"].details
    others = [r for r in report.results if r.id != "claim-2.2.2-x-distances"]
    assert all(r.status == "pass" for r in others)
    assert report.overall == "fail"


def test_passing_suites():
    for suite in ("maps", "ss", "quat", "ledger"):
        report = run(suite)
        assert report.overall == "pass", (suite, [r for r in report.results if r.status != "pass"])


def test_cm_suite_default_composition():
    report = run("cm", Config(primes=(5,)))
    rows = [r for r in report.results if r.id.endswith("-row")]
    congruences = [r for r in report.results if r.id.endswith("-congruence")]
    assert len(rows) == 12 and len(congruences) == 12
    assert report.overall == "pass"


def test_cm_suite_builds_each_class_polynomial_once(monkeypatch):
    """16 discriminants, 16 builds, one j_tau ball per root (55 roots), and
    every build accepted at its a-priori starting precision."""
    from stablelab import cmlab

    builds, roots = [], []
    build, root = cmlab.polynomial_from_taus, cmlab.j_tau

    def counted_build(taus, precision):
        result = build(taus, precision)
        builds.append((taus[0].form().discriminant(), precision, result[1]))
        return result

    def counted_root(tau, precision):
        roots.append(tau)
        return root(tau, precision)

    monkeypatch.setattr(cmlab, "polynomial_from_taus", counted_build)
    monkeypatch.setattr(cmlab, "j_tau", counted_root)
    report = run("cm")
    discs = {c.id.split("-")[2] for c in report.results}
    assert report.overall == "pass"
    assert len(discs) == 16 and len(builds) == 16
    assert len(roots) == 55
    for disc, requested, used in builds:
        assert requested == used == cmlab.start_precision(disc), disc


#: module -> the functions that build a value some check reads
_BUILDERS = {
    "curve125": ("build_shifted_model", "ramification_polynomials", "hensel_certificate"),
    "modmaps": ("builtin_maps", "ramification_u_polynomial"),
    "sslab": ("division_polynomial_5", "torsion_polygon"),
    "quatlab": ("smallest_nonresidue", "build_algebra"),
    "ledger": ("ss_survey", "genus_x0", "supersingular_j_invariants"),
    "cmlab": ("class_polynomial",),
}


def test_no_builder_runs_twice_with_equal_arguments_in_a_run(monkeypatch):
    """Each suite builds a value once per run and passes it to every check
    that reads it: no builder is called twice with equal arguments, not even
    H_D for a D = -35 that two cm primes divide exactly once, nor across the
    suites of `all`.  Each run builds anew: a second run of a suite makes
    the first run's builder calls again, and a run of `all` calls every
    builder, so none is kept from an earlier test's run."""
    import importlib

    from stablelab.checks import SUITES

    calls = []

    def recorded(name, builder):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return builder(*args, **kwargs)

        return record

    for module_name, names in _BUILDERS.items():
        module = importlib.import_module(f"stablelab.{module_name}")
        for name in names:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    for suite, config in [*((suite, Config()) for suite in SUITES),
                          ("cm", Config(discriminants=(-35,))), ("all", Config())]:
        runs = []
        for _ in range(2):
            calls.clear()
            run(suite, config)
            repeated = [call for i, call in enumerate(calls) if call in calls[:i]]
            assert calls and not repeated, (suite, repeated)
            runs.append(list(calls))
        assert runs[1] == runs[0], suite
    every = {name for names in _BUILDERS.values() for name in names}
    assert {name for name, _, _ in runs[0]} == every


_G_PLUS_CHECKS = (
    "table-1-match",
    "claim-2.1.1-dominance",
    "claim-2.1.1-reduction",
    "claim-2.2.1-hensel",
    "claim-2.3.2-reduction",
)


def test_a_wrong_table1_cell_fails_the_g_plus_checks_with_its_reason(monkeypatch):
    """One wrong cell of table 1 makes the shifted model's certificate raise:
    the five checks that read g+ fail with the cell mismatch as details, the
    others keep their verdicts, and nothing is an internal error."""
    from stablelab import curve125

    wrong = {**curve125.TABLE1, (2, 2): curve125.TABLE1[(2, 2)] + 1}  # 15 y^2 x0^2 becomes 16
    monkeypatch.setattr(curve125, "TABLE1", wrong)
    report = run("stable-model")
    details = {r.id: r.details for r in report.results if r.status == "fail"}
    assert set(details) == {*_G_PLUS_CHECKS, "claim-2.2.2-x-distances"}
    for check_id in _G_PLUS_CHECKS:
        assert details[check_id] == "shifted-model coefficient of x0^2 y^2 is 15, expected 16"
    assert not any("internal error" in r.details for r in report.results)


def test_a_failed_shared_certificate_is_built_once_per_run(monkeypatch):
    """`once` keeps a builder's exception as it keeps its value: with one
    wrong table-1 cell the five checks that read g+ share one failed build."""
    from stablelab import curve125

    build = curve125.build_shifted_model
    wrong = {**curve125.TABLE1, (2, 2): curve125.TABLE1[(2, 2)] + 1}
    builds = []

    def counted():
        builds.append(None)
        return build()

    monkeypatch.setattr(curve125, "TABLE1", wrong)
    monkeypatch.setattr(curve125, "build_shifted_model", counted)
    for runs in (1, 2):
        assert run("stable-model").overall == "fail"
        assert len(builds) == runs


def test_once_keeps_a_value_or_an_exception():
    from stablelab.checks import once

    calls = []

    def flaky():
        calls.append(None)
        raise ValueError(len(calls))

    failing, constant = once(flaky), once(lambda: [len(calls)])
    for _ in range(3):
        with pytest.raises(ValueError, match="^1$"):
            failing()
    assert constant() is constant() and len(calls) == 1


#: the checks whose certificates read a symbol's valuation
_VALUED_CHECKS = {
    "stable-model": (
        "claim-2.1.1-dominance",
        "claim-2.1.1-reduction",
        "claim-2.2.1-hensel",
        "claim-2.3.2-reduction",
    ),
    "maps": ("claim-3.1.2-cm-disks",),
}


def test_a_wrong_valuation_of_r_fails_every_check_that_reads_it(monkeypatch):
    """With r stated at v(r) = 1/5, which its rule r^5 -> 25 - 25r refutes,
    each check whose certificate values r fails with a reason naming r;
    the rule itself is unchanged, so the other checks keep their verdicts."""
    from fractions import Fraction

    from stablelab import curve125
    from stablelab.exactmath.poly import ValuedSymbol

    wrong = ValuedSymbol("r", Fraction(1, 5), curve125.R_SYMBOL.rewrite)
    monkeypatch.setattr(curve125, "R_SYMBOL", wrong)
    for suite, check_ids in _VALUED_CHECKS.items():
        report = run(suite)
        details = {r.id: r.details for r in report.results if r.status == "fail"}
        assert set(details) - {"claim-2.2.2-x-distances"} == set(check_ids), suite
        for check_id in check_ids:
            assert details[check_id].startswith("v(r) = 1/5 does not fit the rule"), check_id
        assert not any("internal error" in r.details for r in report.results)


def test_a_failed_mass_identity_fails_the_checks_that_read_the_census(monkeypatch):
    """A census whose mass is not (p-1)/24 fails conjecture 3.4.5's
    certificate: with one wrong entry, a curve with 24 automorphisms, which
    no supersingular curve in characteristic p > 3 has, every check that
    reads the census reports the one reason of its one failed build."""
    from stablelab import ledger

    record = ledger.SSClassSurvey
    monkeypatch.setattr(ledger, "SSClassSurvey", lambda entries: record((*entries, (24, 1))))
    report = run("ledger", Config(primes=(5,)))
    details = {r.id: r.details for r in report.results if r.status == "fail"}
    assert set(details) == {"mass-formula", "survey-p05", "budget-p05", "exponent-center-crosscheck"}
    reason = "Eichler mass formula fails at p = 5: sum 1/|Aut| = 5/24, not (p-1)/24 = 1/6"
    assert set(details.values()) == {reason}
    assert {r.id: r.status for r in report.results}["genus-125"] == "pass"


@pytest.mark.parametrize("error", [TypeError, ValueError, AssertionError])
def test_a_crash_in_a_layer_is_an_internal_error(monkeypatch, error):
    """Only a CertificateError is a certificate's verdict: a layer that raises
    anything else, a plain AssertionError included, has crashed."""
    from stablelab import modmaps

    def crash():
        raise error("broken layer")

    monkeypatch.setattr(modmaps, "cm_disk_identities", crash)
    by_id = {r.id: r for r in run("maps").results}
    assert by_id["claim-3.1.2-cm-disks"].status == "fail"
    assert by_id["claim-3.1.2-cm-disks"].details == f"internal error: {error.__name__}('broken layer')"
    assert by_id["claim-3.1.2-ramification-image"].status == "pass"


def test_cm_suite_disc_override():
    report = run("cm", Config(primes=(5,), discriminants=(-20,)))
    ids = [r.id for r in report.results]
    assert len(ids) == 2  # one row crosscheck + one congruence
    assert report.overall == "pass"


def test_a_row_in_the_wrong_table_fails_its_row_check(monkeypatch):
    """A row's case column places it in table 3 (case 1) or table 4 (case 2);
    a column that disagrees with the case of its D fails the row's check with
    both cases named, and the congruence, which derives the case from D,
    still passes."""
    from stablelab import cmlab

    rows = cmlab.table_rows()
    moved = rows[0]._replace(case=2)  # Z[sqrt(-5)] listed in table 4
    monkeypatch.setattr(cmlab, "table_rows", lambda: (moved, *rows[1:]))
    report = run("cm", Config(primes=(5,), discriminants=(-20, -40)))
    details = {r.id: r.details for r in report.results if r.status == "fail"}
    assert details == {
        "conjecture-3.3.1-D0020-row": "the table places D = -20 in case 2, but at p = 5 it is in case 1"
    }
    assert len(report.results) == 4


def test_cm_suite_skips_excluded_hypothesis(tmp_path, capsys):
    """A (p, D) outside the hypothesis p || D gets no congruence check, so a
    suite left with none ran no check and is no pass; the CLI rejects a D
    that no configured cm prime divides exactly once."""
    assert build_checks("cm", Config(primes=(5,), discriminants=(-50,))) == []
    assert run("cm", Config(primes=(5,), discriminants=(-50,))).overall == "fail"
    path = tmp_path / "cm7.json"
    assert cli.main(["cm", "--p", "7", "--disc=-20", "--report", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: the cm suite needs a discriminant that one of its primes [7] "
        "divides exactly once, got -20\n"
    )
    assert not path.exists()
    ids = [c.id for c in build_checks("all", Config(discriminants=(-20,))) if "D0020" in c.id]
    assert ids == ["conjecture-3.3.1-D0020-row", "conjecture-3.3.1-D0020-congruence"]


@pytest.fixture(scope="module")
def all_report():
    return run("all")


def test_report_schema():
    report = run("ss")
    payload = report.to_json()
    assert set(payload) == {"suite", "version", "overall", "config", "checks"}
    assert payload["suite"] == "ss"
    assert payload["overall"] in ("pass", "fail")
    assert isinstance(payload["version"], str)
    for check in payload["checks"]:
        assert set(check) == {"id", "claim_ref", "status", "details", "elapsed_ms"}
        assert check["status"] in ("pass", "fail")
        assert isinstance(check["elapsed_ms"], int)


def test_verify_all_report_matches_golden(all_report):
    """The `verify all` JSON report under a constant clock is byte-identical
    to the committed golden report."""
    golden = Path(__file__).parent / "data" / "verify_all_report.json"
    assert all_report.render("json") == golden.read_text(encoding="utf-8")


def test_printed_rounding_bounds_are_certified(all_report):
    """Each congruence check prints `rounding error < 2^-k`: the certified
    error of its build is below 2^-k, and 2^-k is below the tolerance that
    accepted the build.  The 16 checks of `verify all`, and one D outside
    the tables (-660, h = 8)."""
    from stablelab import cmlab

    drawn = run("cm", Config(primes=(5,), discriminants=(-660,))).results
    congruences = [r for r in (*all_report.results, *drawn) if r.id.endswith("-congruence")]
    assert len(congruences) == 17 and "h = 8" in congruences[-1].details
    for result in congruences:
        disc = -int(re.search(r"-D(\d+)-congruence$", result.id).group(1))
        k = int(re.search(r"rounding error < 2\^-(\d+)\)$", result.details).group(1))
        error = cmlab.class_polynomial(disc).max_rounding_error
        assert error < F(1, 2**k) < cmlab.ROUNDING_TOLERANCE, result.id


def test_report_byte_identical_with_injected_clock(tmp_path):
    config = Config(primes=(5,), cache_dir=str(tmp_path))
    first = run("cm", config).render("json")
    second = run("cm", config).render("json")
    assert first == second


def test_duplicate_ids_rejected():
    from stablelab.report import CheckResult, SuiteReport

    result = CheckResult("a", "table 1", "pass", "", 0)
    with pytest.raises(ValueError):
        SuiteReport("x", "0", {}, (result, result))


def test_unknown_suite():
    with pytest.raises(ValueError):
        build_checks("bogus", Config())


def test_exit_codes(tmp_path, monkeypatch):
    assert cli.main(["maps", "--report", str(tmp_path / "maps.json")]) == 0
    assert cli.main(["stable-model", "--report", str(tmp_path / "sm.json")]) == 1

    # an overflowing component budget is a fail with its reason, not a crash
    from stablelab import ledger

    genus_x0 = ledger.genus_x0
    monkeypatch.setattr(ledger, "genus_x0", lambda N: 7 if N == 125 else genus_x0(N))
    path = tmp_path / "ledger.json"
    assert cli.main(["ledger", "--p", "5", "--report", str(path)]) == 1
    budget = {c["id"]: c for c in json.loads(path.read_text())["checks"]}["budget-p05"]
    assert budget["status"] == "fail"
    assert budget["details"].startswith("component budget 8 exceeds the genus 7 of X0(125)")


def test_unwritable_report_path_exits_2_before_any_check(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        assert cli.main(["ledger", "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_cli_text_format(tmp_path, capsys):
    code = cli.main(["ss", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("suite ss")
    assert "overall: pass" in out


def test_cli_negative_disc_argument(tmp_path):
    path = tmp_path / "cm13.json"
    code = cli.main(["cm", "--p", "13", "--disc", "-52,-104", "--report", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["checks"]) == 2
    assert payload["overall"] == "pass"


def test_cli_duplicate_discs_deduped(tmp_path):
    path = tmp_path / "dup.json"
    code = cli.main(["cm", "--p", "5", "--disc", "-20,-20", "--report", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert len(payload["checks"]) == 2  # one row crosscheck + one congruence


def test_cli_p_filter(tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["ledger", "--p", "7", "--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    ids = [c["id"] for c in payload["checks"]]
    assert "genus-343" in ids and "genus-2197" not in ids


def test_config_file_mixed_discriminants(tmp_path):
    """One --disc list holds both cases; each check takes its sign from D."""
    path = tmp_path / "cm.json"
    argv = ["cm", "--disc=-20,-40", "--p", "5", "--cache-dir", str(tmp_path), "--report", str(path)]
    assert cli.main(argv) == 0
    payload = json.loads(path.read_text())
    details = {c["id"]: c["details"] for c in payload["checks"] if c["status"] == "pass"}
    assert details["conjecture-3.3.1-D0020-congruence"].startswith("v5((j - 0)^2 - 125) > 3")
    assert details["conjecture-3.3.1-D0040-congruence"].startswith("v5((j - 0)^2 + 125) > 3")
    assert len(details) == 4  # two row checks, two congruences
    assert payload["config"] == {
        "primes": [5], "discriminants": [-20, -40], "cache_dir": str(tmp_path),
    }


def test_cache_warm_rerun(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = ["cm", "--p", "5", "--disc", "-20", "--cache-dir", str(tmp_path), "--report"]
    assert cli.main([*argv, str(first)]) == 0
    assert (tmp_path / "class_poly_cache.txt").exists()
    assert cli.main([*argv, str(second)]) == 0
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    for payload in (one, two):
        for check in payload["checks"]:
            check["elapsed_ms"] = 0
    assert one == two


def test_invalid_precision_rejected(capsys):
    """Every build starts at its proven precision: no option sets it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["cm", "--precision", "300", "--disc=-20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    ("cm --p 13 --disc -52,-104", (Config(primes=(13,), discriminants=(-52, -104)), None)),
    ("--p 5 cm --disc=-20", (Config(primes=(5,), discriminants=(-20,)), None)),
    ("cm --rep PATH --disc=-20", (Config(discriminants=(-20,)), "PATH")),
    ("cm --p=5 --disc=-20", (Config(primes=(5,), discriminants=(-20,)), None)),
    ("cm --c DIR", (Config(cache_dir="DIR"), None)),
    ("", 2), ("bogus", 2), ("cm --format xml", 2),
    ("cm --disc", 2), ("cm --precision 300", 2), ("cm ss", 2), ("--help", 0),
])
def test_command_line_parsing(capsys, argv, expected):
    """Options go before or after the suite, as `--opt value` or `--opt=value`
    or a unique prefix, and a negative --disc list is a value.  A bad command
    line exits 2 after the usage line; --help prints it and exits 0."""
    if isinstance(expected, tuple):
        args = cli.parse_args(argv.split())
        assert (cli._build_config(args), args.report) == expected
        return
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv.split())
    assert exc.value.code == expected
    out, err = capsys.readouterr()
    usage = out if expected == 0 else err
    assert usage.startswith("usage: verify")
    options = [f"--{option.rstrip('=')}" for option in cli.LONG_OPTIONS]
    assert all(name in usage for name in (*cli.SUITE_NAMES, *options))


@pytest.mark.parametrize("argv, option", [
    ("cm --disc=-20 --disc=-40", "--disc"), ("cm --p 5 --p 7", "--p"),
])
def test_a_repeated_option_exits_2(capsys, argv, option):
    """An option given twice is an error, not a silent choice of one value."""
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: verify")
    assert err.endswith(f"verify: error: {option} given twice\n")


def test_suite_without_checks_is_not_a_pass(tmp_path, capsys):
    """A prime without a cm conjecture is a config error for the cm suite;
    `all` keeps it for quat and ledger, and cm adds no check for it."""
    from stablelab.report import SuiteReport

    assert SuiteReport("x", "0", {}, ()).overall == "fail"
    for argv in (["cm", "--p", "4"], ["cm", "--p", "11"], ["cm", "--p", "5,11"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "config error: the cm suite needs one of the primes 5, 7, 13" in err
    args = cli.parse_args(["all", "--p", "17"])
    assert cli._build_config(args).primes == (17,)
    assert build_checks("cm", Config(primes=(17,))) == []


def test_invalid_discriminants_rejected(capsys):
    for disc in ("7", "-20,-6", "0"):
        assert cli.main(["cm", f"--disc={disc}"]) == 2
        assert "config error: " in capsys.readouterr().err
    for disc, bad in (("-20,-50", -50), ("-20,8", 8)):
        assert cli.main(["cm", f"--disc={disc}"]) == 2
        assert f"config error: {bad} is not a negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("disc, item", [
    ("abc", "abc"), ("", ""), ("-95,,-135", ""), ("x", "x"), ("5,,7", ""), ("5.9", "5.9"),
    ("1_3", "1_3"), (" 13", " 13"), ("5 ", "5 "), ("\u0665", "\u0665"), ("5,-", "-"),
])
def test_malformed_disc_names_the_option_and_the_item(capsys, disc, item):
    """--p and --disc read their comma lists with one parser, which names the
    option and the first item that is not an optional sign and ASCII digits:
    `int` alone reads `1_3` as 13, strips spaces and reads the Arabic-Indic
    digit five (U+0665) as 5."""
    for option in ("--disc", "--p"):
        assert cli.main(["cm", f"{option}={disc}"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {option} takes comma-separated integers, got {item!r}\n"


#: suite -> (checks of `--p 5,7`, the checks of p = 7 among them)
_AT_FIVE_AND_SEVEN = {
    "cm": (26, {"conjecture-3.3.2-D0028-congruence", "conjecture-3.3.2-D0084-congruence"}),
    "quat": (8, {"lemma-3.4.1-algebra-p07", "lemma-3.4.1-orbits-p07"}),
}


@pytest.mark.parametrize("suite", _AT_FIVE_AND_SEVEN)
def test_a_prime_list_configures_every_prime(suite):
    """`--p 5,7,5` runs the suite at 5 and 7, in the order given, and the
    report echoes the list without the repeat."""
    count, at_seven = _AT_FIVE_AND_SEVEN[suite]
    config = cli._build_config(cli.parse_args([suite, "--p", "5,7,5"]))
    assert config == Config(primes=(5, 7))
    report = run(suite, config)
    ids = {r.id for r in report.results}
    assert len(ids) == count and at_seven <= ids
    echo = json.loads(report.render("json"))["config"]
    assert echo == {"primes": [5, 7], "discriminants": None, "cache_dir": None}


def test_empty_cache_dir_rejected(tmp_path, monkeypatch, capsys):
    """An empty --cache-dir names no directory: it exits 2 and writes no
    cache into the working directory."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["cm", "--p", "5", "--disc=-20", "--cache-dir="]) == 2
    assert capsys.readouterr().err == "config error: --cache-dir takes a directory, got ''\n"
    assert not list(tmp_path.iterdir())


def test_unusable_primes_rejected(tmp_path, capsys):
    """Each suite takes only the primes it can use, and --disc only where a
    suite reads discriminants: stable-model, maps and ss are stated at p = 5."""
    for argv in (["quat", "--p", "2"], ["quat", "--p", "9"], ["ledger", "--p", "1"],
                 ["ledger", "--p", "9"], ["ledger", "--p", "3"], ["all", "--p", "2"],
                 ["maps", "--p", "7"], ["stable-model", "--p", "7"], ["ss", "--disc=-20"]):
        assert cli.main(argv) == 2, argv
        assert "config error: the " in capsys.readouterr().err
    assert cli.main(["ss", "--p", "4"]) == 2
    err = capsys.readouterr().err
    assert "config error: the ss suite is stated at p = 5 only, got p = 4" in err
    assert cli.main(["ledger", "--p", "5,4"]) == 2
    err = capsys.readouterr().err
    assert "config error: the ledger suite needs a prime p > 3, got p = 4" in err
    assert cli.main(["maps", "--p", "5,7"]) == 2
    assert "the maps suite is stated at p = 5 only, got p = 7" in capsys.readouterr().err
    path = tmp_path / "quat3.json"
    assert cli.main(["quat", "--p", "3", "--report", str(path)]) == 0
    assert cli.main(["ss", "--p", "5", "--report", str(tmp_path / "ss5.json")]) == 0


def test_all_reads_the_suite_table_at_call_time(monkeypatch):
    """`all` runs whatever SUITES holds when it is called, in table order,
    so a builder replaced in place (as a tracer does) is the one that runs."""
    from stablelab import checks

    assert cli.SUITE_NAMES == (*checks.SUITES, "all")
    stub = checks.Check("stub", "table 1", lambda: "")
    monkeypatch.setitem(checks.SUITES, "ss", lambda config: [stub])
    ids = [c.id for c in build_checks("all", Config(primes=(5,)))]
    assert "stub" in ids and "claim-3.2.1-threshold" not in ids
    assert ids.index("table-2-transcription") < ids.index("stub") < ids.index("class-count-2p1i")


def test_cache_dir_that_is_a_file_rejected(tmp_path, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    assert cli.main(["cm", "--p", "5", "--disc=-20", "--cache-dir", str(occupied)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    fresh = tmp_path / "fresh"
    path = tmp_path / "cm.json"
    assert cli.main(["cm", "--p", "5", "--disc=-20", "--cache-dir", str(fresh),
                     "--report", str(path)]) == 0
    assert (fresh / "class_poly_cache.txt").exists()


_SRC = str(Path(cli.__file__).resolve().parents[1])
_LABS = {f"stablelab.{name}" for name in ("cmlab", "curve125", "ledger", "modmaps", "quatlab", "sslab")}
_KIT = {f"stablelab.exactmath.{name}" for name in ("kernel", "poly", "polygon", "resultant", "valuation")}


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded once it has run ``code``."""
    script = f"import os, sys\nsys.path.insert(0, {_SRC!r})\n{code}\nprint(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def _mpmath(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "mpmath"}


#: the argparse parse path; `verify` reads its command line with getopt
_PARSER_CHAIN = {"argparse", "locale"}


def test_importing_the_cli_loads_no_layer():
    loaded = _modules_after("import stablelab.cli")
    assert "stablelab.cli" in loaded
    assert not loaded & (_LABS | _PARSER_CHAIN | {"mpmath", "stablelab.exactmath"})


def test_each_suite_loads_only_its_layers():
    cm = _modules_after(
        "from stablelab import cli\n"
        "assert cli.main(['cm', '--p', '5', '--disc=-20', '--report', os.devnull]) == 0"
    )
    assert "stablelab.cmlab" in cm
    assert not cm & ((_LABS - {"stablelab.cmlab"}) | _PARSER_CHAIN)
    assert not _mpmath(cm)
    # the class-polynomial path runs on the integer layer, not the symbolic kit
    assert cm & _KIT == _KIT - {"stablelab.exactmath.poly", "stablelab.exactmath.valuation"}
    everything = _modules_after(
        "from stablelab import cli\n"
        "assert cli.main(['all', '--report', os.devnull]) == 1"
    )
    assert _LABS | _KIT <= everything and not _mpmath(everything)
    assert not everything & _PARSER_CHAIN
    stable_model = _modules_after(
        "from stablelab import cli\n"
        "assert cli.main(['stable-model', '--report', os.devnull]) == 1"
    )
    assert "stablelab.curve125" in stable_model and "mpmath" not in stable_model
    ledger = _modules_after(
        "from stablelab import cli\n"
        "assert cli.main(['ledger', '--report', os.devnull]) == 0"
    )
    assert "stablelab.ledger" in ledger
    assert not ledger & {"mpmath", "stablelab.cmlab"}
    assert not {name for name in ledger if name.startswith("stablelab.exactmath")}
    ss = _modules_after(
        "from stablelab import cli\n"
        "assert cli.main(['ss', '--report', os.devnull]) == 0"
    )
    assert ss & _LABS == {"stablelab.sslab"} and not _mpmath(ss)

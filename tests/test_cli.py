import json
from pathlib import Path

import pytest

from stablelab import cli
from stablelab.checks import Config, build_checks
from stablelab.report import KNOWN_ANCHORS


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
    from stablelab import cmlab

    builds = []
    original = cmlab.polynomial_from_taus

    def counted(taus, precision):
        builds.append(len(taus))
        return original(taus, precision)

    monkeypatch.setattr(cmlab, "polynomial_from_taus", counted)
    report = run("cm")
    discs = {c.id.split("-")[2] for c in report.results}
    assert report.overall == "pass"
    assert len(discs) == 16 and len(builds) == 16


def test_cm_suite_disc_override():
    report = run("cm", Config(primes=(5,), disc_override=(-20,)))
    ids = [r.id for r in report.results]
    assert len(ids) == 2  # one row crosscheck + one congruence
    assert report.overall == "pass"


def test_cm_suite_skips_excluded_hypothesis():
    report = run("cm", Config(primes=(5,), disc_override=(-50,)))
    assert [r.status for r in report.results] == ["skipped"]
    assert report.overall == "pass"  # skipped is not a failure


@pytest.fixture(scope="module")
def all_report():
    return run("all")


def test_claim_refs_are_known_anchors(all_report):
    report = all_report
    for result in report.results:
        assert result.claim_ref in KNOWN_ANCHORS, result.id


def test_report_schema():
    report = run("ss")
    payload = report.to_json()
    assert set(payload) == {"suite", "version", "overall", "config", "checks"}
    assert payload["suite"] == "ss"
    assert payload["overall"] in ("pass", "fail")
    assert isinstance(payload["version"], str)
    for check in payload["checks"]:
        assert set(check) == {"id", "claim_ref", "status", "details", "elapsed_ms"}
        assert check["status"] in ("pass", "fail", "skipped")
        assert isinstance(check["elapsed_ms"], int)


def test_verify_all_report_matches_golden(all_report):
    """The `verify all` JSON report under a constant clock is byte-identical
    to the committed golden report."""
    golden = Path(__file__).parent / "data" / "verify_all_report.json"
    assert all_report.render("json") == golden.read_text(encoding="utf-8")


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


def test_exit_codes(tmp_path):
    assert cli.main(["maps", "--report", str(tmp_path / "maps.json")]) == 0
    assert cli.main(["stable-model", "--report", str(tmp_path / "sm.json")]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["maps", "--config", str(bad)]) == 2

    # a config-driven failure: ordinary genera overflowing the budget
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [7], "ordinary_genera": [1000] * 6}))
    assert (
        cli.main(["ledger", "--config", str(config), "--report", str(tmp_path / "l.json")])
        == 1
    )
    payload = json.loads((tmp_path / "l.json").read_text())
    statuses = {c["id"]: c["status"] for c in payload["checks"]}
    assert statuses["budget-p07"] == "fail"
    assert statuses["genus-343"] == "pass"


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


def test_config_file_dotted_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "discriminants.case1": [-20],
        "discriminants.case2": [-40],
        "primes": [5],
        "precision_bits": 300,
        "cache_dir": str(tmp_path),
    }))
    path = tmp_path / "cm.json"
    assert cli.main(["cm", "--config", str(config), "--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    ids = [c["id"] for c in payload["checks"]]
    assert len([i for i in ids if i.endswith("-congruence")]) == 2
    assert payload["config"]["precision_bits"] == 300


def test_cache_warm_rerun(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cache_dir": str(tmp_path)}))
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert cli.main(["cm", "--p", "5", "--disc", "-20", "--config", str(config),
                     "--report", str(first)]) == 0
    assert (tmp_path / "class_poly_cache.txt").exists()
    assert cli.main(["cm", "--p", "5", "--disc", "-20", "--config", str(config),
                     "--report", str(second)]) == 0
    one = json.loads(first.read_text())
    two = json.loads(second.read_text())
    for payload in (one, two):
        for check in payload["checks"]:
            check["elapsed_ms"] = 0
    assert one == two


def test_invalid_precision_rejected(tmp_path, capsys):
    assert cli.main(["cm", "--precision", "-5", "--disc=-20"]) == 2
    assert "config error: precision_bits" in capsys.readouterr().err
    assert cli.main(["cm", "--precision", "0", "--disc=-20"]) == 2
    config = tmp_path / "config.json"
    for bad in (-3, [300]):
        config.write_text(json.dumps({"precision_bits": bad}))
        assert cli.main(["cm", "--config", str(config)]) == 2
        assert "config error: " in capsys.readouterr().err


def test_suite_without_checks_is_not_a_pass(tmp_path):
    from stablelab.report import SuiteReport

    assert SuiteReport("x", "0", {}, ()).overall == "fail"
    path = tmp_path / "cm4.json"
    assert cli.main(["cm", "--p", "4", "--report", str(path)]) == 1
    payload = json.loads(path.read_text())
    assert payload["checks"] == [] and payload["overall"] == "fail"


def test_invalid_discriminants_rejected(tmp_path, capsys):
    for disc in ("7", "-20,-6", "0"):
        assert cli.main(["cm", f"--disc={disc}"]) == 2
        assert "config error: " in capsys.readouterr().err
    config = tmp_path / "config.json"
    for key in ("discriminants.case1", "discriminants.case2"):
        config.write_text(json.dumps({key: [-20, -50]}))
        assert cli.main(["cm", "--config", str(config)]) == 2
        assert "-50 is not a negative integer" in capsys.readouterr().err


def test_unusable_primes_rejected(tmp_path, capsys):
    for argv in (["quat", "--p", "2"], ["quat", "--p", "9"], ["ledger", "--p", "1"],
                 ["ledger", "--p", "9"], ["ledger", "--p", "3"], ["all", "--p", "2"]):
        assert cli.main(argv) == 2, argv
        assert "config error: the " in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [5, 4]}))
    assert cli.main(["ledger", "--config", str(config)]) == 2
    path = tmp_path / "quat3.json"
    assert cli.main(["quat", "--p", "3", "--report", str(path)]) == 0


def test_non_string_cache_dir_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    for bad in (5, ["cache"], True):
        config.write_text(json.dumps({"cache_dir": bad}))
        assert cli.main(["cm", "--disc=-20", "--config", str(config)]) == 2
        assert "config error: cache_dir must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("document, key", [
    ({"primes": [5.9], "discriminants.case1": [-20.7]}, "primes"),
    ({"primes": [True]}, "primes"),
    ({"discriminants.case1": [-20.7]}, "discriminants.case1"),
    ({"discriminants.case2": [-40, "-20"]}, "discriminants.case2"),
    ({"precision_bits": 300.5}, "precision_bits"),
    ({"g_E": 1.5}, "g_E"),
    ({"ordinary_genera": [2, False]}, "ordinary_genera"),
])
def test_non_integer_config_numbers_rejected(tmp_path, capsys, document, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert cli.main(["cm", "--config", str(config)]) == 2
    assert f"config error: {key} must be an integer" in capsys.readouterr().err

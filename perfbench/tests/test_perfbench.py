"""Tests of the benchmark's own parts: draw, oracle, span arithmetic, tracer.

Run from the repository root with
    python3 -m unittest discover -s perfbench/tests
"""

import itertools
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def class_number(D):
    """Count primitive reduced forms (a, b, c) of discriminant D < 0."""
    count = 0
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c >= a and not (b < 0 and a == c) and math.gcd(math.gcd(a, b), c) == 1:
                count += 1
    return count


class DrawTest(unittest.TestCase):
    def test_pool_is_every_eligible_discriminant(self):
        eligible = [
            (D, class_number(D))
            for D in range(-3, -700, -1)
            if D % 4 in (0, 1) and D % 5 == 0 and D % 25 != 0
            and D not in oracle.TABLE_DISCRIMINANTS
        ]
        expected = [(D, h) for D, h in eligible if h in (4, 6, 8)]
        self.assertEqual(sorted(workloads.CM_POOL), sorted(expected))
        self.assertEqual(len(workloads.CM_POOL), 27)

    def test_same_seed_same_draws(self):
        first = list(itertools.islice(workloads.draw_stream(11), 12))
        again = list(itertools.islice(workloads.draw_stream(11), 12))
        other = list(itertools.islice(workloads.draw_stream(12), 12))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_every_draw_has_the_same_class_number_histogram(self):
        for seed in range(5):
            for draw in itertools.islice(workloads.draw_stream(seed), 12):
                self.assertEqual(len(set(draw)), len(draw))
                self.assertEqual(
                    workloads.class_number_histogram(draw), workloads.DRAW_PER_CLASS_NUMBER
                )


def faithful_report(expected):
    checks = []
    for cid, (status, must_contain) in expected.items():
        details = f"computed {{{must_contain}}}" if must_contain else "ok"
        checks.append({"id": cid, "status": status, "details": details})
    return {"checks": checks}


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.expected = oracle.suite_verdicts("all")
        self.report = faithful_report(self.expected)

    def test_tables_have_the_suite_sizes(self):
        self.assertEqual(len(self.expected), 76)
        self.assertEqual(oracle.expected_exit_code(self.expected), 1)
        cm = oracle.expected_verdicts(oracle.congruence_id(d) for d, _ in workloads.CM_POOL)
        self.assertEqual(oracle.expected_exit_code(cm), 0)

    def test_faithful_report_passes(self):
        self.assertEqual(oracle.score(self.expected, self.report, 1), (76, 0, []))

    def test_flipped_status_fails(self):
        self.report["checks"][0]["status"] = "fail"
        self.assertEqual(oracle.score(self.expected, self.report, 1)[:2], (76, 1))

    def test_known_discrepancy_reported_as_pass_fails(self):
        for check in self.report["checks"]:
            if check["id"] == oracle.X_DISTANCE_ID:
                check["status"], check["details"] = "pass", "all at 1/2"
        self.assertEqual(oracle.score(self.expected, self.report, 0)[:2], (76, 76))
        self.assertEqual(oracle.score(self.expected, self.report, 1)[:2], (76, 1))

    def test_discrepancy_without_the_multiset_fails(self):
        for check in self.report["checks"]:
            if check["id"] == oracle.X_DISTANCE_ID:
                check["details"] = "claimed {1/2 x90}"
        self.assertEqual(oracle.score(self.expected, self.report, 1)[:2], (76, 1))

    def test_dropped_id_fails(self):
        del self.report["checks"][5]
        self.assertEqual(oracle.score(self.expected, self.report, 1)[:2], (76, 1))

    def test_internal_error_fails(self):
        self.report["checks"][3]["details"] = "internal error: ZeroDivisionError()"
        attempted, failed, problems = oracle.score(self.expected, self.report, 1)
        self.assertEqual((attempted, failed), (76, 1))
        self.assertIn("internal error", problems[0])

    def test_unexpected_id_fails(self):
        self.report["checks"].append({"id": "extra", "status": "pass", "details": ""})
        self.assertEqual(oracle.score(self.expected, self.report, 1)[:2], (77, 1))

    def test_crash_fails_every_check(self):
        self.assertEqual(oracle.score(self.expected, None, None)[:2], (76, 76))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        spans = [
            ["root", 0.0, 10.0, -1, "c"],
            ["a", 1.0, 4.0, 0, "c"],
            ["leaf", 2.0, 3.0, 1, "c"],
            ["b", 5.0, 9.0, 0, "c"],
            ["a", 9.5, 10.0, 0, "c"],
        ]
        seconds, calls = tracer.self_times(spans)
        self.assertEqual(dict(calls), {"root": 1, "a": 2, "leaf": 1, "b": 1})
        self.assertAlmostEqual(seconds["root"], 10 - 3 - 4 - 0.5)
        self.assertAlmostEqual(seconds["a"], 2 + 0.5)
        self.assertAlmostEqual(seconds["leaf"], 1)
        self.assertAlmostEqual(seconds["b"], 4)
        self.assertAlmostEqual(sum(seconds.values()), 10)

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 4.0, -1, None], ["x", 1.0, 3.0, 0, None], ["y", 2.0, 5.0, 0, None]]
        seconds, _ = tracer.self_times(spans)
        self.assertAlmostEqual(seconds["p"], 1.0)


class TracerTest(unittest.TestCase):
    def test_wrapper_is_seen_from_a_cross_module_call_site(self):
        from stablelab import cmlab
        from stablelab.exactmath import polygon

        original = polygon.newton_polygon
        self.assertIs(cmlab.newton_polygon, original)
        trace = tracer.Tracer()
        trace.install()
        try:
            self.assertIsNot(cmlab.newton_polygon, original)
            H = cmlab.ClassPolynomial(-20, (-681472000, -1264000, 1), 0, 0.0)
            result = cmlab.congruence_check(H, cmlab.standard_spec(5, "-"))
        finally:
            trace.uninstall()
        self.assertIs(cmlab.newton_polygon, original)
        self.assertTrue(result.passed)
        names = [span[0] for span in trace.spans]
        self.assertEqual(names[0], "cmlab.congruence_check")
        self.assertIn("cmlab.characteristic_polynomial", names)
        polygon_span = trace.spans[names.index("exactmath.newton_polygon")]
        self.assertEqual(polygon_span[3], 0)  # parent: the congruence check
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.json"
            trace.dump(path, import_s=0.1)
            metrics = tracer.layer_metrics(json.loads(path.read_text()))
        self.assertEqual(metrics["exactmath.newton_polygon.calls"], 1)
        self.assertEqual(metrics["cmlab.j_tau.calls"], 0)

    def test_tau_discriminant(self):
        from stablelab import cmlab

        for row in cmlab.table_rows():
            for tau in row.taus:
                self.assertEqual(tracer.tau_discriminant(tau), row.discriminant)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(tracer.PER_LAYER),
        )
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]], ["verdict_s", "peak_rss_mb", "setup_s"]
        )


if __name__ == "__main__":
    unittest.main()

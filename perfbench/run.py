"""Benchmark of the stablelab verifier: time to verdict of `verify`.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each verifier process is a fresh
interpreter that imports the CLI from ./src and runs one workload's `verify`
calls, so every timing includes interpreter start and import.  Processes run
one after another (closed loop, one client), and the run ends with the one
that ends nearest to S seconds; every report is graded against the
hand-written oracle.  The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics of traced processes, which alternate with untraced ones so
that the tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 120


class BenchmarkError(Exception):
    pass


def launch(calls, work: Path, trace_path=None) -> tuple[float, float, list | None]:
    """Run one verifier process; (wall seconds, peak RSS in MB, exit codes).

    The wall time runs from just before the spawn to the reaping of the
    child (os.wait4).  Peak RSS is the child's own VmHWM, which it reports
    as it exits; the exit codes are None when the child crashed.
    """
    codes_path = work / "codes.json"
    if codes_path.exists():
        codes_path.unlink()
    spec = {
        "src": str(SRC),
        "calls": calls,
        "codes": str(codes_path),
        "trace": str(trace_path) if trace_path else None,
    }
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    started = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no verifier running
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not codes_path.exists():
        return wall, usage.ru_maxrss / 1024, None
    result = json.loads(codes_path.read_text())
    return wall, result["peak_rss_kb"] / 1024, result["codes"]


def set_up(work: Path) -> float:
    """Time the set-up SETUP_REPEATS times and return the median seconds.

    Set-up is an import-only process: it compiles the bytecode and proves
    that the source tree imports.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        _, _, codes = launch([], work)
        if codes != []:
            raise BenchmarkError("the verifier does not import from ./src")
        times.append(perf_counter() - started)
    return statistics.median(times)


def run_process(workload, work: Path, index: int, draw, traced: bool) -> dict:
    """One graded verifier process of the workload."""
    cache_dir = work / f"draw-cache-{index}"
    calls = workloads.invocations(workload, draw, str(cache_dir))
    reports = [work / f"report-{index}-{k}.json" for k in range(len(calls))]
    trace_path = work / f"spans-{index}.json" if traced else None
    wall, rss, codes = launch(
        [argv + ["--report", str(path)] for (argv, _), path in zip(calls, reports)],
        work,
        trace_path,
    )
    result = {"wall": wall, "rss": rss, "attempted": 0, "failed": 0, "problems": []}
    for k, ((_, expected), path) in enumerate(zip(calls, reports)):
        report = json.loads(path.read_text()) if path.exists() else None
        code = codes[k] if codes is not None else None
        attempted, failed, problems = oracle.score(expected, report, code)
        result["attempted"] += attempted
        result["failed"] += failed
        result["problems"] += problems
        path.unlink(missing_ok=True)
    if traced and codes is not None:
        result["trace"] = json.loads(trace_path.read_text())
    shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
    }


def measure(args, work: Path) -> dict:
    env = environment()
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    setup_s = set_up(work)
    draws = workloads.draw_stream(args.seed)
    plain, traced, rounds = [], [], []
    started = perf_counter()
    index = 0
    while True:
        round_started = perf_counter()
        draw = next(draws) if args.workload == "cm-draw" else None
        if draw is not None:
            print(f"draw {index}: D = {draw}, h histogram "
                  f"{workloads.class_number_histogram(draw)}")
        for runs, with_trace in ((plain, False), (traced, True))[: 1 + args.trace]:
            runs.append(run_process(args.workload, work, index, draw, with_trace))
            index += 1
        rounds.append(perf_counter() - round_started)
        # Stop after the whole round that ends nearest to --seconds, so that a
        # run of 9 s processes does not overrun by most of a process.
        if perf_counter() - started + statistics.median(rounds) / 2 >= args.seconds:
            break
    env["loadavg_after"] = list(os.getloadavg())
    print("environment: " + json.dumps(env, sort_keys=True))

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"][:20]:
            print(f"wrong verdict: {problem}")
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} checks)")
    print("waits: none; the verifier runs on one thread, one process at a time")
    walls = [r["wall"] for r in plain]
    print(f"verdict_s: median of {len(walls)} processes; wall times "
          f"{[round(w, 3) for w in walls]} s")

    if args.trace:
        documents = [r["trace"] for r in traced if "trace" in r]
        if not documents:
            raise BenchmarkError("no traced process completed")
        per_process = [tracer.layer_metrics(doc) for doc in documents]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_process), "unit": unit}
            for name, unit, _ in tracer.PER_LAYER
            if name != "trace.overhead_s"
        }
        overhead = statistics.median(r["wall"] for r in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"per-layer metrics: median of {len(documents)} traced processes")
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        (WORK / f"last-trace-{args.workload}.json").write_text(json.dumps(documents[-1]))
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss"] for r in plain), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stablelab" / "cli.py").is_file():
        print(f"no verifier source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = measure(args, work)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

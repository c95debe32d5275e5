"""One verifier process: import the CLI from a source tree and run `verify`.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "src" (the directory that contains the stablelab package),
"calls" (a list of argv lists, each run through the CLI entry point in
turn), "codes" (where to write the exit codes and the process's peak RSS as
JSON) and "trace" (where to write the spans, or null for an untraced run).
With no calls the process only imports the CLI, which compiles its bytecode.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space (VmHWM).

    os.wait4's ru_maxrss is not used: across vfork and exec, Linux carries
    the spawning process's RSS high-water mark into the child's.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    started = time.perf_counter()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from stablelab import cli

    import_s = time.perf_counter() - started
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = [cli.main(argv) for argv in spec["calls"]]
    if tracer is not None:
        tracer.dump(spec["trace"], import_s)
    with open(spec["codes"], "w", encoding="ascii") as handle:
        json.dump({"codes": codes, "peak_rss_kb": peak_rss_kb()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

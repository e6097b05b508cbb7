"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload serve-open --seed 1 --stepup
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off.
``--trace 1`` runs the same inputs twice, half the seconds each: untraced,
then with every layer wrapped; it prints the per-layer metrics, the
tracing overhead (traced minus untraced latency) and the share of request
time no layer span covers, and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload in turn, each in a fresh process,
and ends with one JSON line whose metric names are prefixed with the
workload. ``--stepup`` is informational: it steps the ``serve-open`` arrival rate up
and reports the highest rate that meets the latency limit without a
growing backlog.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
whenever a result was printed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Oracle seconds allowed per run, after the window.
ORACLE_BUDGET_S = 5.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def stop_helper_processes() -> None:
    """Stop and reap every process this run started that is still alive.

    Shared memory made by the process backend starts the interpreter's
    ``multiprocessing`` resource tracker, which would otherwise outlive
    this process by a moment; it is stopped here and waited for, so the
    run leaves nothing behind on any path out.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(window) -> float:
    """Peak RSS of this process plus the workers' peaks, in MiB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + window.info.get("worker_rss_kb", 0)) / 1024.0


def run_untraced(args) -> dict:
    import report
    from workloads import WORKLOADS, leaks

    run, setups = WORKLOADS[args.workload]
    window = run(args.seed, args.seconds, setups=setups,
                 oracle_seed=args.seed)
    rss = peak_rss_mb(window)
    check = window.sample.check(ORACLE_BUDGET_S)
    window.sample = None
    found = leaks(window.rss_pids)
    return report.end_to_end(window, check, found, rss)


def run_traced(args) -> dict:
    import report
    from tracing import SpanRecorder
    from workloads import WORKLOADS, leaks

    run, _ = WORKLOADS[args.workload]
    half = args.seconds / 2.0
    plain = run(args.seed, half, setups=1, oracle_seed=args.seed)
    plain.sample = None
    with SpanRecorder() as recorder:
        traced = run(args.seed, half, setups=1, recorder=recorder,
                     oracle_seed=args.seed)
    probe = report.probe(traced.probe_pairs)
    check = traced.sample.check(ORACLE_BUDGET_S)
    traced.sample = None
    found = leaks(traced.rss_pids + plain.rss_pids)
    result = report.per_layer(plain, traced, recorder, probe, check, found)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    recorder.write(out / f"{args.workload}.spans.jsonl.gz")
    return result


def run_stepup(args) -> int:
    """Step the serve-open rate up; print each step and the best rate."""
    import measure
    from workloads import SERVE_LIMIT_MS, SERVE_RATE, leaks, run_serve_open

    best = None
    for factor in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        rate = SERVE_RATE * factor
        window = run_serve_open(args.seed, args.seconds, setups=1,
                                oracle_seed=args.seed, rate=rate)
        window.sample = None
        done = [op for op in window.ops if op.done and not op.error]
        lat = [(op.done - op.due) * 1e3 for op in done]
        value, pct, n = measure.tail(lat)
        backlog = window.info["queue_depth_end"]
        meets = (len(done) == len(window.ops) and value <= SERVE_LIMIT_MS
                 and backlog <= 2)
        print(f"rate {rate:7.1f}/s  tail p{pct:.1f} {value:8.1f} ms "
              f"(n={n})  backlog {backlog:4d}  "
              f"failed {len(window.ops) - len(done):4d}  "
              f"{'meets' if meets else 'misses'} the {SERVE_LIMIT_MS:.0f} ms "
              "limit", flush=True)
        if meets:
            best = rate
        leftovers = leaks()
        if leftovers:
            print(f"leaks: {', '.join(leftovers)}")
    print(f"highest rate meeting the limit: {best}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    import subprocess

    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stepup", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"program source not found under {SRC.name}/repro")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all" and not args.stepup:
        return run_all(args)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.stepup:
        if args.workload != "serve-open":
            return _fail("--stepup applies to serve-open only")
        return run_stepup(args)
    started = time.perf_counter()
    result = run_traced(args) if args.trace else run_untraced(args)
    env = environment(args.seed)
    env["workload"] = args.workload
    env["run_s"] = round(time.perf_counter() - started, 3)
    for line in result.pop("lines"):
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Barrier-free tile dataflow vs the fork/join blocked sweep.

The acceptance bar for the dataflow subsystem (:mod:`repro.dataflow`) is
measured on the two ramp-heavy 1024x1024 workloads where per-wavefront
barriers hurt most — the native Inverted-L (fig8, contributing {NW}) and the
Knight-move skewed grid ({W, NE}) — at block 64:

* **bit-identity** (always gated): the dataflow table equals the sequential
  oracle bit for bit on both workloads;
* **DES-predicted reduction** (gated at full size): the list-scheduled tile
  DAG (:mod:`repro.sim.dataflow`) beats the barrier engine's makespan on
  both workloads (``blocked_makespan`` barrier / dataflow > 1 — the
  ramp waves stop serializing behind the widest tile). At the ``--quick``
  size (256) the Inverted-L tile grid is only 4x4, its Γ-wave dependency
  chains dominate, and the barrier model — which (optimistically) prices a
  Γ-wave as one fork/join — comes out ahead, so quick runs report the
  ratios informationally;
* **wall clock** (gated only on >= 4 cores, full size): min-of-N functional
  solves, dataflow >= 1.3x faster than the barrier path. On the 1-2 core
  containers this repo's CI runs in, thread parallelism cannot beat a
  barrier sweep (the GIL serializes numpy dispatch and adds queue
  overhead), so the wall-clock ratio is reported informationally.

Results land in ``benchmarks/results/dataflow_pipeline.txt`` and — the perf
trajectory the ROADMAP asks for — in ``BENCH_dataflow.json`` at the repo
root.

Run standalone (CI perf smoke)::

    python benchmarks/bench_dataflow_pipeline.py --quick

or through pytest alongside the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import Framework
from repro.exec.base import ExecOptions
from repro.exec.blocked import blocked_makespan
from repro.machine.platform import hetero_high
from repro.problems import make_fig8_problem, make_synthetic
from repro.types import ContributingSet

REPO_ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
BLOCK = 64
TARGET_WALL_RATIO = 1.3
TARGET_DES_RATIO = 1.02
MIN_CORES_FOR_WALL_GATE = 4


def _workloads(size: int) -> list[tuple[str, object, ExecOptions]]:
    """The two ramp-heavy geometries, pinned to their native schedules."""
    base = dict(block_size=BLOCK)
    return [
        (
            f"inverted-l-{size}",
            make_fig8_problem(size),
            ExecOptions(inverted_l_as_horizontal=False, **base),
        ),
        (
            f"knight-move-{size}",
            make_synthetic(ContributingSet.of("W", "NE"), size),
            ExecOptions(**base),
        ),
    ]


def _best_of(fw: Framework, problem, options: ExecOptions, reps: int):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fw.solve(problem, executor="cpu-blocked", options=options)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _measure_one(name: str, problem, options: ExecOptions, fw: Framework,
                 reps: int) -> dict:
    barrier_opts = options.replace(dataflow=False)
    dataflow_opts = options.replace(dataflow=True)

    # the executor's DES makespans: the model-level barrier-removal claim
    des_barrier = blocked_makespan(problem, fw.platform, barrier_opts)
    des_dataflow = blocked_makespan(problem, fw.platform, dataflow_opts)

    barrier_s, barrier_res = _best_of(fw, problem, barrier_opts, reps)
    dataflow_s, dataflow_res = _best_of(fw, problem, dataflow_opts, reps)
    oracle = fw.solve(problem, executor="sequential", options=barrier_opts)

    stats = dataflow_res.stats
    return {
        "workload": name,
        "table_shape": list(problem.shape),
        "pattern": barrier_res.pattern.value,
        "block": BLOCK,
        "schedule": stats.get("schedule"),
        "tiles": stats.get("blocks"),
        "pool_workers": stats.get("pool_workers"),
        "worker_occupancy": stats.get("worker_occupancy"),
        "max_queue_depth": stats.get("max_queue_depth"),
        "des_barrier_s": des_barrier,
        "des_dataflow_s": des_dataflow,
        "des_ratio": des_barrier / des_dataflow,
        "barrier_s": barrier_s,
        "dataflow_s": dataflow_s,
        "wall_ratio": barrier_s / dataflow_s,
        "bit_identical": bool(
            np.array_equal(dataflow_res.table, oracle.table)
            and np.array_equal(barrier_res.table, oracle.table)
        ),
    }


def measure(quick: bool = False, reps: int = 3) -> dict:
    size = 256 if quick else 1024
    cores = os.cpu_count() or 1
    fw = Framework(hetero_high())
    results = [
        _measure_one(name, problem, options, fw, reps)
        for name, problem, options in _workloads(size)
    ]
    return {
        "benchmark": "dataflow_pipeline",
        "cores": cores,
        "reps": reps,
        "size": size,
        "block": BLOCK,
        "target_wall_ratio": TARGET_WALL_RATIO,
        "target_des_ratio": TARGET_DES_RATIO,
        "des_gate_active": not quick,
        "wall_gate_active": not quick and cores >= MIN_CORES_FOR_WALL_GATE,
        "workloads": results,
    }


def report(r: dict) -> str:
    des = (f"DES gate >= {r['target_des_ratio']}x"
           if r["des_gate_active"] else "DES informational (quick)")
    wall = (f"wall gate >= {r['target_wall_ratio']}x"
            if r["wall_gate_active"]
            else f"wall informational ({r['cores']} core(s))")
    lines = [
        f"tile dataflow vs barrier sweep — {r['size']}^2, block {r['block']}, "
        f"min of {r['reps']} solves, {r['cores']} cores ({des}; {wall})"
    ]
    for w in r["workloads"]:
        lines.append(
            f"  {w['workload']:<16} {w['tiles']:>5} tiles   "
            f"DES {w['des_barrier_s'] * 1e3:7.3f} -> "
            f"{w['des_dataflow_s'] * 1e3:7.3f} ms ({w['des_ratio']:.3f}x)   "
            f"wall {w['barrier_s'] * 1e3:8.1f} -> "
            f"{w['dataflow_s'] * 1e3:8.1f} ms ({w['wall_ratio']:.2f}x)   "
            f"occupancy {w['worker_occupancy']:.2f}   "
            f"bit-identical: {w['bit_identical']}"
        )
    return "\n".join(lines)


def _write_outputs(r: dict, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "dataflow_pipeline.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_dataflow.json").write_text(
        json.dumps(r, indent=2) + "\n"
    )


def _gate(r: dict) -> list[str]:
    """Failed-gate messages; empty when the run is acceptable."""
    failures = []
    for w in r["workloads"]:
        if not w["bit_identical"]:
            failures.append(
                f"{w['workload']}: dataflow table differs from the oracle"
            )
        if w["schedule"] != "dataflow":
            failures.append(
                f"{w['workload']}: run degraded to {w['schedule']!r}"
            )
        if r["des_gate_active"] and w["des_ratio"] < r["target_des_ratio"]:
            failures.append(
                f"{w['workload']}: DES reduction {w['des_ratio']:.3f}x < "
                f"{r['target_des_ratio']}x"
            )
        if r["wall_gate_active"] and w["wall_ratio"] < r["target_wall_ratio"]:
            failures.append(
                f"{w['workload']}: wall-clock ratio {w['wall_ratio']:.2f}x < "
                f"{r['target_wall_ratio']}x on {r['cores']} cores"
            )
    return failures


def test_dataflow_beats_barrier():
    r = measure(quick=os.environ.get("REPRO_BENCH_QUICK", "") == "1")
    _write_outputs(r, report(r))
    failures = _gate(r)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="256x256 tables for fast iteration (CI smoke)")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)

    r = measure(quick=args.quick, reps=args.reps)
    text = report(r)
    print(text)
    _write_outputs(r, text)
    failures = _gate(r)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

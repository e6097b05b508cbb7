"""Cost model of the scan tier: O(rows·cols) work at O(log) depth.

A scan solve performs

* one cell-function pass over the computed region (the zero-probe that
  recovers the additive term ``d``), and
* a handful of unit-work vectorized passes: per scanned axis, one pass for
  coefficient 1 (``cumsum``) or ⌈log₂ n⌉ doubling passes otherwise; the
  rowscan path additionally pays one pass per nonzero upper-row coefficient
  and a per-row dispatch overhead (the Python row loop), charged at the CPU
  model's fork cost.

The same timeline gives the result's ``simulated_time`` and the serve/SLO
admission price (:meth:`repro.slo.pricing.Pricer` reads its makespan), so a
linear request is priced with exactly the number its result reports — the
scan it will actually run, not the wavefront sweep it avoids.
"""

from __future__ import annotations

import math

from ..core.problem import LDDPProblem
from ..sim.engine import Engine

__all__ = ["scan_passes", "scan_timeline"]


def _axis_passes(coeff, size: int) -> int:
    if coeff == 0 or size <= 1:
        return 0
    if coeff == 1:
        return 1
    return max(1, math.ceil(math.log2(size)))


def scan_passes(problem: LDDPProblem) -> tuple[int, str]:
    """``(unit-work passes, path)`` for one scan solve (probe excluded)."""
    spec = problem.linear
    R, C = problem.computed_shape
    separable = (
        spec.separable
        and problem.fixed_rows == 0
        and problem.fixed_cols == 0
        and problem.oob_value == 0
    )
    if separable:
        return _axis_passes(spec.n, R) + _axis_passes(spec.w, C), "separable"
    upper = sum(1 for coeff in (spec.n, spec.nw, spec.ne) if coeff != 0)
    return upper + _axis_passes(spec.w, C), "rowscan"


def scan_timeline(problem: LDDPProblem, platform):
    """DES timeline of one scan solve: the probe task plus the scan passes."""
    cpu = platform.cpu
    cells = problem.total_computed_cells
    passes, path = scan_passes(problem)
    engine = Engine()
    engine.task(
        "cpu",
        cpu.parallel_time(cells, problem.cpu_work),
        label="scan.probe",
        kind="compute",
    )
    scan_time = passes * cpu.parallel_time(cells, 1.0)
    if path == "rowscan":
        R, _ = problem.computed_shape
        scan_time += R * cpu.fork_us * 1e-6
    if scan_time > 0:
        engine.task("cpu", scan_time, label=f"scan.{path}", kind="compute")
    return engine.run()

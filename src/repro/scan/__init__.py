"""Scan/closed-form solver tier for declared-linear recurrences.

The wavefront machinery schedules *any* local-dependency cell function; this
package is the algorithm-level fast path for the linear subclass ("On the
Computation of 2-Dimensional Recurrence Equations", PAPERS.md): problems
carrying a :class:`~repro.core.linear.LinearSpec` solve as vectorized NumPy
prefix scans — O(rows·cols) work at O(log) depth — instead of O(rows+cols)
wavefront sweeps.

Layering mirrors :mod:`repro.kernels`' slice/index/generic tiering, one
level up:

* :mod:`repro.scan.solver` — the math: the zero-probe that recovers the
  additive term, the seeded declaration spot-check, the separable
  (column-scan → row-scan) and general (per-row Hillis–Steele) paths.
  Bit-exact for integer dtypes, tolerance-checked for floats.
* :mod:`repro.scan.timing` — the closed-form cost model (probe + log-depth
  passes) used for the result's ``simulated_time`` and for serve/SLO
  admission pricing, so scan-served requests aren't priced as wavefronts.
* :mod:`repro.scan.route` — the hook ``Executor.solve`` calls first:
  applicability (``ExecOptions.scan`` opt-out, no aux arrays, never the
  ``sequential`` oracle), the ``scan.solve`` fault site, and degradation to
  the wavefront path on *any* scan failure — bit-identically, with the
  reason in ``stats`` (``scan.solved`` / ``scan.declined`` /
  ``scan.degraded`` counters). Deadline/cancel aborts always surface.
"""

from ..core.linear import LinearSpec
from .route import scan_applicable, try_scan_solve
from .solver import ScanMismatch, linear_term, scan_solve, verify_spec
from .timing import scan_timeline

__all__ = [
    "LinearSpec",
    "ScanMismatch",
    "linear_term",
    "scan_applicable",
    "scan_solve",
    "scan_timeline",
    "try_scan_solve",
    "verify_spec",
]

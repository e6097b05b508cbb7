"""Cost model of the delta tier: one probe pass plus cone-sized replay.

A delta patch performs

* one cell-function pass over the computed region (the seed probe — same
  cost shape as the scan tier's zero probe), and
* the cone replay: cone-volume cells of real recurrence work, paid one
  fork/join per cone wavefront (the replay reuses the per-wavefront
  ``evaluate_span`` dispatch, so the Python-level wave loop is charged at
  the CPU model's fork cost, like the rowscan path).

The same numbers feed the patched result's ``simulated_time``/timeline and
the SLO admission price (:func:`delta_makespan`), so near-duplicate traffic
is priced as the cone it will actually recompute, not as the full sweep it
avoids.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..sim.engine import Engine

__all__ = ["delta_timeline", "delta_makespan"]


def delta_timeline(
    problem: LDDPProblem,
    platform,
    cone_cells: int,
    waves: int,
    *,
    probed_cells: int | None = None,
):
    """DES timeline of one delta patch: probe task plus cone replay.

    ``probed_cells`` is how many cells the seed probe actually evaluated —
    the candidate set plus the locality spot-check when the payload
    declares read locality, the whole computed region otherwise (also the
    default, matching the declaration-free worst case).
    """
    cpu = platform.cpu
    if probed_cells is None:
        probed_cells = problem.total_computed_cells
    engine = Engine()
    if probed_cells > 0:
        engine.task(
            "cpu",
            cpu.parallel_time(probed_cells, problem.cpu_work),
            label="delta.probe",
            kind="compute",
        )
    if cone_cells > 0:
        patch = cpu.parallel_time(cone_cells, problem.cpu_work)
        patch += waves * cpu.fork_us * 1e-6
        engine.task("cpu", patch, label="delta.patch", kind="compute")
    return engine.run()


def delta_makespan(
    problem: LDDPProblem,
    platform,
    *,
    cone_fraction: float = 0.25,
    options=None,
) -> float:
    """Seconds for one delta patch (the admission price).

    The true cone is unknown at admission time, so the price assumes the
    SLO policy's expected ``cone_fraction`` of the computed region; the
    EWMA calibration (:meth:`repro.slo.pricing.Pricer.observe`) then pulls
    the price toward the traffic's real cone sizes.  A problem with a
    ``payload_locality`` declaration is priced with a cone-sized probe
    (the candidate set tracks the edit); one without pays the full-table
    probe pass.  The expected patch is priced as one cone-sized task
    (no per-wave forks: the wave count is unknown too) on
    :func:`delta_timeline`.  ``options`` is accepted for signature parity
    with the other pricing models.
    """
    cells = problem.total_computed_cells
    cone = max(0, int(cone_fraction * cells))
    probe = cone if problem.payload_locality else cells
    return delta_timeline(
        problem, platform, cone, 0, probed_cells=probe
    ).makespan

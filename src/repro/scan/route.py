"""Routing layer: offer declared-linear solves to the scan tier first.

``Executor.solve`` calls :func:`try_scan_solve` before running its wavefront
path — the same shape as the kernels tier's plan→generic fallback, one
level up. The contract:

* **Opt-out** — ``ExecOptions(scan=False)`` (CLI ``--no-scan``) routes
  nothing; the wavefront path still serves linear problems.
* **Applicability** — only functional solves of aux-free declared-linear
  problems; the ``sequential`` reference executor is never routed, so it
  stays the independent oracle the scan is checked against.
* **Degradation** — any scan failure (injected ``scan.solve`` fault,
  verification mismatch, solver bug) falls back to the wavefront path,
  whose table is bit-identical by construction. It is the ``scan`` tier of
  :mod:`repro.tiers`: ``scan.degraded`` counts it and ``stats["tiers"]``
  records why. Deadline/cancel aborts are *never* degraded — they
  surface, exactly as on the wavefront path.
"""

from __future__ import annotations

from ..core.problem import LDDPProblem
from ..faults import check_fault
from ..obs import get_metrics, get_tracer
from ..patterns.registry import strategy_for
from ..tiers import attempt
from .solver import scan_solve
from .timing import scan_timeline

__all__ = ["scan_applicable", "try_scan_solve"]

#: Executors the scan tier never fronts: the scalar reference executor is
#: the oracle scan results are validated against, so it must stay a true
#: wavefront sweep.
_EXCLUDED_EXECUTORS = frozenset({"sequential"})


def scan_applicable(
    problem: LDDPProblem, options=None, executor: str | None = None
) -> bool:
    """Whether a functional solve of ``problem`` would route to the scan tier.

    Shared by the router and the serve/SLO pricer, so admission prices
    exactly the runs that will actually scan.
    """
    if executor is not None and executor in _EXCLUDED_EXECUTORS:
        return False
    if options is not None and not options.scan:
        return False
    if problem.linear is None:
        return False
    if problem.aux_specs:
        return False
    return True


def try_scan_solve(executor, problem: LDDPProblem, trail: list):
    """Attempt a scan solve for ``executor``; the result or ``None``.

    ``None`` when the scan tier does not apply, or when the scan was
    attempted and failed — the failure is on ``trail`` and the caller runs
    its wavefront path.
    """
    if problem.linear is None:
        return None
    from ..exec.base import SolveResult, check_control

    metrics = get_metrics()
    options = executor.options
    if not scan_applicable(problem, options, executor.name):
        metrics.counter("scan.declined").inc()
        return None
    check_control(options, f"solve of {problem.name!r}")

    def run():
        check_fault("scan.solve")
        with get_tracer().span(
            "scan.solve", cat="executor", problem=problem.name,
            executor=executor.name,
        ):
            return scan_solve(problem)

    solved = attempt(
        trail, "scan", run, executor=executor.name, problem=problem.name
    )
    if solved is None:
        return None
    table, stats = solved
    metrics.counter("scan.solved").inc()
    strategy = strategy_for(
        problem,
        pattern_override=options.pattern_override,
        inverted_l_as_horizontal=options.inverted_l_as_horizontal,
    )
    timeline = scan_timeline(problem, executor.platform)
    executor._maybe_validate(timeline)
    return SolveResult(
        problem=problem.name,
        executor=executor.name,
        pattern=strategy.schedule.pattern,
        simulated_time=timeline.makespan,
        table=table,
        aux={},
        timeline=timeline,
        stats={"solver": "scan", **stats},
    )

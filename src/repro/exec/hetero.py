"""The heterogeneous executor: phased CPU/GPU split with boundary exchange.

This is the framework proper (paper Sec. III). Per iteration of the phase
plan it submits:

* a CPU task (fork/join parallel region over the CPU's prefix of the
  wavefront, if any);
* a GPU kernel task over the remainder (if any);
* the boundary copies the pattern requires — pipelined on the copy engine
  for one-way patterns (Sec. IV-C1), or host-blocking pinned-memory
  exchanges for two-way patterns (Sec. IV-C2);

plus bulk staging copies at phase boundaries (the halo of the last few
wavefronts changes ownership when the machine switches between CPU-only and
split execution) and at setup/teardown.

Dependencies submitted to the engine:

* same-device tasks serialize via resource FIFO;
* a GPU task at iteration ``t+1`` waits for the H2D boundary copy issued
  after CPU iteration ``t`` (and vice versa for D2H) — the binding edges of
  Figs. 3-6; longer-range edges (NW at ``t-2``/``t-3``) are strictly slacker
  and therefore implied;
* pinned/pageable copies block the host: the next CPU task waits for them
  too. Streamed copies only block their consumer.

The graph is built by one function, :func:`hetero_timeline`: the executor's
``solve``/``estimate``, ``Framework.estimate_fast``, the SLO pricer and the
autotuner all call it, so every caller prices a run with the same numbers.

Observability: the run is wrapped in a ``hetero.solve`` span with one
``phase:*`` child per phase-plan segment, one ``wavefront`` span per
iteration, and ``kernel`` / ``transfer`` spans per submission — see
``docs/observability.md``. The spans are only built while a tracer is
enabled.

Resilience: when the GPU or transfer model fails mid-run (a
:class:`~repro.errors.PlatformError` or an injected fault) the run restarts
CPU-only — the device tier of :mod:`repro.tiers` (``device_faults``): same
table, CPU-only timing. Deadline/cancel control is checked once per
wavefront.
"""

from __future__ import annotations

import contextlib
from typing import Callable

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..errors import InjectedFault, PlatformError
from ..machine.platform import Platform
from ..memory.buffers import TransferLedger
from ..obs import get_metrics, get_tracer
from ..patterns.base import PatternStrategy
from ..patterns.registry import strategy_for
from ..sim.engine import Engine
from ..sim.timeline import Timeline
from ..types import Pattern, TransferDirection, TransferKind
from .base import (
    ExecOptions,
    Executor,
    SolveResult,
    check_control,
    evaluate_span,
    register_executor,
    wavefront_contiguous,
)

__all__ = ["HeteroExecutor", "hetero_timeline"]

#: Dependency depth: how many previous wavefronts hold live halo cells.
_HALO_DEPTH: dict[Pattern, int] = {
    Pattern.ANTI_DIAGONAL: 2,
    Pattern.HORIZONTAL: 1,
    Pattern.VERTICAL: 1,
    Pattern.INVERTED_L: 1,
    Pattern.MINVERTED_L: 1,
    Pattern.KNIGHT_MOVE: 3,
}

_NO_SPAN = contextlib.nullcontext()


def hetero_timeline(
    problem: LDDPProblem,
    platform: Platform,
    params: HeteroParams | None = None,
    options: ExecOptions | None = None,
    *,
    strategy: PatternStrategy | None = None,
    tracer=None,
    evaluate: Callable[[int, int, int], None] | None = None,
) -> tuple[Timeline, TransferLedger, dict]:
    """Submit the heterogeneous task graph and resolve it.

    Returns ``(timeline, ledger, plan)``: the resolved schedule, the
    copies it issued, and the plan figures the executor reports in
    ``stats`` (clamped parameters, phases, per-device cell totals,
    Table II transfer way, layout contiguity). ``params=None`` uses the
    analytic tuner's choice.

    ``evaluate(t, cpu_cells, width)`` is called inside each wavefront
    before its tasks are submitted (the executor's functional sweep);
    ``tracer`` receives the phase/wavefront/kernel/transfer spans while it
    is enabled. Neither is needed to price a run. No ``exec.*`` metrics
    are recorded here. Deadline/cancel control is checked once per
    wavefront.
    """
    options = options or ExecOptions()
    if strategy is None:
        strategy = strategy_for(
            problem,
            pattern_override=options.pattern_override,
            inverted_l_as_horizontal=options.inverted_l_as_horizontal,
        )
    if params is None:
        from ..tuning.model import analytic_params

        params = analytic_params(problem, platform, strategy)
    params = strategy.clamp_params(params)
    phases = strategy.phase_bounds(params)
    strategy.check_phases(phases)
    schedule = strategy.schedule
    what = f"{'solve' if evaluate else 'estimate'} of {problem.name!r}"
    traced = tracer is not None and tracer.enabled

    contiguous = wavefront_contiguous(schedule.pattern, options.use_wavefront_layout)
    cpu_work = problem.cpu_work * strategy.cpu_overhead
    gpu_work = problem.gpu_work * strategy.gpu_overhead
    cpu, gpu, xfer = platform.cpu, platform.gpu, platform.transfer
    itemsize = problem.dtype.itemsize
    halo = _HALO_DEPTH[schedule.pattern]

    # The device split of every wavefront: the CPU takes a canonical prefix
    # (the whole wavefront in cpu-low phases), the GPU the rest.
    widths = schedule.widths().tolist()
    cpu_cells = list(widths)
    for ph in phases:
        if ph.name == "split":
            for t in range(ph.start, ph.stop):
                cpu_cells[t] = strategy.split_cpu_cells(t, widths[t], params.t_share)
    cpu_total = sum(cpu_cells)
    gpu_total = sum(widths) - cpu_total

    # The boundary copies of one split iteration, with their resolved kind,
    # resource and duration (the recipe is the same for every iteration).
    recipe = []
    for spec in strategy.split_transfers(schedule.num_iterations // 2):
        streamed = spec.kind is TransferKind.STREAMED and options.pipeline
        kind = spec.kind if streamed else (
            TransferKind.PINNED
            if spec.kind in (TransferKind.PINNED, TransferKind.STREAMED)
            else TransferKind.PAGEABLE
        )
        nbytes = spec.cells * itemsize
        recipe.append((
            spec, spec.direction.value, spec.direction is TransferDirection.H2D,
            streamed, kind, "copy" if streamed else "bus",
            xfer.time(nbytes, kind), nbytes,
        ))
    any_split = False

    engine = Engine()
    ledger = TransferLedger()
    cpu_extra: list[int] = []  # deps for the *next* CPU task
    gpu_extra: list[int] = []
    last_cpu: int | None = None
    last_gpu: int | None = None
    if gpu_total > 0:
        in_bytes = problem.payload_nbytes() + (
            problem.shape[0] * problem.shape[1] - problem.total_computed_cells
        ) * itemsize
        with tracer.span(
            "transfer", cat="transfer",
            direction="h2d", kind="pageable", label="setup", nbytes=in_bytes,
        ) if traced else _NO_SPAN:
            gpu_extra.append(engine.task(
                "bus",
                xfer.time(max(in_bytes, itemsize), TransferKind.PAGEABLE),
                label="h2d-setup",
                kind="setup",
            ))
            ledger.record(
                TransferDirection.H2D, TransferKind.PAGEABLE,
                cells=0, nbytes=in_bytes, label="setup",
            )

    prev_phase: str | None = None
    phase_span = None
    # Deferred cpu-low -> split halo: emitted just before the phase's first
    # actual GPU task, so an all-CPU "split" phase moves nothing.
    pending_h2d_halo: tuple[int, int] | None = None  # (iteration, cells)
    for ph in phases:
        phase = ph.name
        for t in range(ph.start, ph.stop):
            check_control(options, what)
            width = widths[t]
            c_cells = cpu_cells[t]
            g_cells = width - c_cells
            if phase != prev_phase:
                if phase_span is not None:
                    phase_span.end()
                if traced:
                    phase_span = tracer.span(
                        f"phase:{phase}", cat="phase", phase=phase, start=t,
                    )

                # ---- phase-boundary bulk halo copies --------------------
                lo = max(0, t - halo)
                if phase == "split" and prev_phase == "cpu-low":
                    pending_h2d_halo = (t, sum(widths[lo:t]))
                elif phase == "cpu-low" and prev_phase == "split":
                    gpu_halo_cells = sum(widths[lo:t]) - sum(cpu_cells[lo:t])
                    if gpu_halo_cells > 0:
                        halo_bytes = gpu_halo_cells * itemsize
                        with tracer.span(
                            "transfer", cat="transfer", direction="d2h",
                            kind="pageable", label="phase-halo", t=t,
                            cells=gpu_halo_cells,
                        ) if traced else _NO_SPAN:
                            cpu_extra.append(engine.task(
                                "bus",
                                xfer.time(halo_bytes, TransferKind.PAGEABLE),
                                deps=() if last_gpu is None else (last_gpu,),
                                label=f"d2h-halo[{t}]",
                                kind="phase-transfer",
                            ))
                            ledger.record(
                                TransferDirection.D2H, TransferKind.PAGEABLE,
                                cells=gpu_halo_cells, nbytes=halo_bytes,
                                label="phase-halo",
                            )
                    pending_h2d_halo = None
                prev_phase = phase

            if pending_h2d_halo is not None and g_cells:
                at, halo_cells = pending_h2d_halo
                pending_h2d_halo = None
                if halo_cells > 0:
                    halo_bytes = halo_cells * itemsize
                    with tracer.span(
                        "transfer", cat="transfer", direction="h2d",
                        kind="pageable", label="phase-halo", t=at,
                        cells=halo_cells,
                    ) if traced else _NO_SPAN:
                        tid = engine.task(
                            "bus",
                            xfer.time(halo_bytes, TransferKind.PAGEABLE),
                            deps=() if last_cpu is None else (last_cpu,),
                            label=f"h2d-halo[{at}]",
                            kind="phase-transfer",
                        )
                        gpu_extra.append(tid)
                        cpu_extra.append(tid)  # pageable copy blocks the host
                        ledger.record(
                            TransferDirection.H2D, TransferKind.PAGEABLE,
                            cells=halo_cells, nbytes=halo_bytes,
                            label="phase-halo",
                        )

            with tracer.span(
                "wavefront", cat="wavefront", t=t, phase=phase,
                cpu_cells=c_cells, gpu_cells=g_cells,
            ) if traced else _NO_SPAN:
                if evaluate is not None:
                    evaluate(t, c_cells, width)

                # ---- compute tasks ----------------------------------------
                if c_cells:
                    last_cpu = engine.task(
                        "cpu",
                        cpu.parallel_time(c_cells, cpu_work, contiguous),
                        deps=cpu_extra,
                        label=f"cpu[{t}]",
                        kind="compute",
                        iteration=t,
                        phase=phase,
                    )
                    cpu_extra = []
                if g_cells:
                    with tracer.span(
                        "kernel", cat="kernel", t=t, cells=g_cells,
                    ) if traced else _NO_SPAN:
                        last_gpu = engine.task(
                            "gpu",
                            gpu.kernel_time(g_cells, gpu_work, contiguous),
                            deps=gpu_extra,
                            label=f"gpu[{t}]",
                            kind="compute",
                            iteration=t,
                            phase=phase,
                        )
                    gpu_extra = []

                # ---- boundary transfers -----------------------------------
                if not (c_cells and g_cells):
                    continue
                any_split = True
                for (spec, direction, h2d, streamed, kind, resource, dur,
                     nbytes) in recipe:
                    with tracer.span(
                        "transfer", cat="transfer",
                        direction=direction, kind=kind.value,
                        label="boundary", t=t, cells=spec.cells,
                    ) if traced else _NO_SPAN:
                        tid = engine.task(
                            resource,
                            dur,
                            deps=(last_cpu if h2d else last_gpu,),
                            label=f"{direction}[{t}]",
                            kind="boundary-transfer",
                            iteration=t,
                            direction=direction,
                        )
                        if h2d:
                            gpu_extra.append(tid)
                            if not streamed:
                                cpu_extra.append(tid)  # host blocked by the copy
                        else:
                            cpu_extra.append(tid)
                            if not streamed:
                                gpu_extra.append(tid)
                        ledger.record(
                            spec.direction, kind, cells=spec.cells,
                            nbytes=nbytes, iteration=t,
                        )
    if phase_span is not None:
        phase_span.end()

    # ---- gather the GPU-resident part of the result ---------------------------
    if gpu_total > 0:
        out_bytes = gpu_total * itemsize
        with tracer.span(
            "transfer", cat="transfer",
            direction="d2h", kind="pageable", label="result", nbytes=out_bytes,
        ) if traced else _NO_SPAN:
            engine.task(
                "bus",
                xfer.time(out_bytes, TransferKind.PAGEABLE),
                deps=() if last_gpu is None else (last_gpu,),
                label="d2h-result",
                kind="setup",
            )
            ledger.record(
                TransferDirection.D2H, TransferKind.PAGEABLE,
                cells=gpu_total, nbytes=out_bytes, label="result",
            )

    directions = {spec.direction for spec, *_ in recipe} if any_split else set()
    plan = {
        "t_switch": params.t_switch,
        "t_share": params.t_share,
        "phases": [(p.name, p.start, p.stop) for p in phases],
        "cpu_cells": cpu_total,
        "gpu_cells": gpu_total,
        "transfer_way": (
            "none" if not directions
            else "2-way" if len(directions) == 2 else "1-way"
        ),
        "contiguous": contiguous,
    }
    return engine.run(), ledger, plan


class HeteroExecutor(Executor):
    name = "hetero"
    device_faults = (PlatformError, InjectedFault)

    def _run(
        self,
        problem: LDDPProblem,
        functional: bool,
        params: HeteroParams | None = None,
    ) -> SolveResult:
        options = self.options
        strategy = strategy_for(
            problem,
            pattern_override=options.pattern_override,
            inverted_l_as_horizontal=options.inverted_l_as_horizontal,
        )
        if params is None:
            from ..tuning.model import analytic_params

            params = analytic_params(problem, self.platform, strategy)
        params = strategy.clamp_params(params)
        schedule = strategy.schedule

        table = aux = evaluate = None
        if functional:
            table = problem.make_table()
            aux = problem.make_aux()

            def evaluate(t: int, cpu_cells: int, width: int) -> None:
                if cpu_cells:
                    evaluate_span(
                        problem, schedule, table, aux, t, 0, cpu_cells,
                        options=options,
                    )
                if cpu_cells < width:
                    evaluate_span(
                        problem, schedule, table, aux, t, cpu_cells, width,
                        options=options,
                    )

        tracer = get_tracer()
        with tracer.span(
            "hetero.solve", cat="executor",
            problem=problem.name, pattern=schedule.pattern.value,
            functional=functional, strategy=strategy.name,
            t_switch=params.t_switch, t_share=params.t_share,
        ):
            timeline, ledger, plan = hetero_timeline(
                problem, self.platform, params, options,
                strategy=strategy, tracer=tracer, evaluate=evaluate,
            )

        metrics = get_metrics()
        metrics.counter("exec.hetero.cells.cpu").inc(plan["cpu_cells"])
        metrics.counter("exec.hetero.cells.gpu").inc(plan["gpu_cells"])
        for rec in ledger.records:
            metrics.counter(f"exec.hetero.transfers.{rec.direction.value}").inc()
            metrics.counter("exec.hetero.transfer_bytes").inc(rec.nbytes)
        metrics.histogram("exec.hetero.iterations").observe(schedule.num_iterations)

        self._maybe_validate(timeline)
        return SolveResult(
            problem=problem.name,
            executor=self.name,
            pattern=schedule.pattern,
            simulated_time=timeline.makespan,
            table=table,
            aux=aux or {},
            timeline=timeline,
            ledger=ledger,
            stats={
                "iterations": schedule.num_iterations,
                "strategy": strategy.name,
                **plan,
                "cpu_utilization": timeline.utilization("cpu"),
                "gpu_utilization": timeline.utilization("gpu"),
            },
        )


register_executor("hetero", HeteroExecutor)

"""List-scheduling engine.

Tasks must be submitted in an order consistent with their dependencies (a
task may only depend on already-submitted tasks), which makes the submission
order a topological order by construction. Each task is therefore resolved
the moment it is submitted:

    start(T) = max( available(resource(T)), max over deps d of end(d) )

This mirrors how a CUDA runtime resolves stream/event dependencies and is
exact for FIFO resources. :meth:`Engine.run` only wraps the finished records
into a :class:`~repro.sim.timeline.Timeline`.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..obs import get_metrics, get_tracer
from .event import Task, check_task
from .timeline import TaskRecord, Timeline

__all__ = ["Engine"]


class Engine:
    """Resolves tasks as they are submitted; :meth:`run` yields the timeline."""

    def __init__(self) -> None:
        self._records: list[TaskRecord] = []
        self._available: dict[str, float] = {}
        self._last_on: dict[str, int] = {}
        self._resolved: Timeline | None = None

    def add(self, task: Task) -> int:
        """Submit and resolve a task; returns its id for use in later ``deps``."""
        return self._resolve(
            task.resource, task.duration, task.deps, task.label, dict(task.meta)
        )

    def task(
        self,
        resource: str,
        duration: float,
        deps: tuple[int, ...] | list[int] = (),
        label: str = "",
        **meta,
    ) -> int:
        """Convenience wrapper around :meth:`add` (same checks, no
        :class:`~repro.sim.event.Task` object)."""
        check_task(resource, duration)
        return self._resolve(resource, duration, tuple(deps), label, meta)

    def _resolve(self, resource, duration, deps, label, meta) -> int:
        if self._resolved is not None:
            raise SimulationError("engine already ran; create a new Engine")
        records = self._records
        tid = len(records)
        # the *binding* predecessor: whichever constraint set the start time
        # (the resource's previous occupant, or the latest-ending dependency)
        # — recorded so Timeline.critical_path can walk the bottleneck chain.
        # None when the task starts at time zero.
        start = self._available.get(resource, 0.0)
        binding = self._last_on.get(resource) if start > 0.0 else None
        for d in deps:
            if not 0 <= d < tid:
                raise SimulationError(
                    f"task {tid} depends on unknown/future task {d}"
                )
            end = records[d].end
            if end > start:
                start = end
                binding = d
        end = start + duration
        self._available[resource] = end
        self._last_on[resource] = tid
        records.append(
            TaskRecord(
                tid=tid,
                resource=resource,
                label=label,
                start=start,
                end=end,
                deps=deps,
                meta=meta,
                binding=binding,
            )
        )
        return tid

    @property
    def num_tasks(self) -> int:
        return len(self._records)

    def run(self) -> Timeline:
        """The resolved timeline; idempotent (returns the cached timeline)."""
        if self._resolved is not None:
            return self._resolved
        with get_tracer().span(
            "engine.run", cat="sim", num_tasks=len(self._records)
        ):
            self._resolved = Timeline(self._records)
        metrics = get_metrics()
        metrics.counter("sim.engine.runs").inc()
        metrics.counter("sim.engine.tasks").inc(len(self._records))
        return self._resolved

"""Task: the unit of simulated work."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import SimulationError

__all__ = ["Task", "check_task"]


def check_task(resource: str, duration: float) -> None:
    """Reject a task without a resource or with a negative/NaN duration."""
    if not resource:
        raise SimulationError("task needs a resource name")
    if not (duration >= 0.0):  # also rejects NaN
        raise SimulationError(
            f"duration must be finite and >= 0, got {duration!r}"
        )


@dataclass(frozen=True)
class Task:
    """One unit of simulated work bound to a resource.

    Parameters
    ----------
    resource:
        Name of the resource the task occupies exclusively (e.g. ``"cpu"``,
        ``"gpu"``, ``"copy"``). Tasks on the same resource execute in
        submission order (FIFO), like operations on one CUDA stream.
    duration:
        Simulated seconds; must be finite and non-negative.
    deps:
        Ids (as returned by :meth:`~repro.sim.engine.Engine.add`) of tasks
        that must finish before this one may start, in addition to the
        implicit FIFO ordering of the resource.
    label:
        Human-readable tag for traces (e.g. ``"kernel[t=17]"``).
    meta:
        Free-form annotations carried into the timeline (iteration index,
        phase, transfer direction, byte counts, ...).
    """

    resource: str
    duration: float
    deps: tuple[int, ...] = ()
    label: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_task(self.resource, self.duration)

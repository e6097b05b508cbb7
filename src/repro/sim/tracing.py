"""Structured trace export for solved timelines.

:func:`trace_json` is the repo's own flat list of task dicts (stable
format, used by tests and the analysis layer). Chrome ``trace_event``
JSON lives in :mod:`repro.obs.export` (``chrome_trace(timeline=...)``).

Timelines containing non-finite task times are rejected: a NaN duration
renders as an empty trace in every viewer, which silently destroys the
timing argument the trace exists to make.
"""

from __future__ import annotations

import json
from typing import Any

from ..obs.export import check_finite
from .timeline import Timeline

__all__ = ["trace_json", "summarize"]


def trace_json(timeline: Timeline, indent: int | None = None) -> str:
    """Serialize a timeline to JSON (list of task dicts)."""
    check_finite(timeline)
    return json.dumps(timeline.to_trace(), indent=indent)


def summarize(timeline: Timeline) -> dict[str, Any]:
    """Aggregate statistics for reports and assertions.

    Returns makespan, per-resource busy time and utilization, and counts of
    tasks grouped by the ``kind`` meta key (compute / transfer / setup).
    Safe on an empty timeline: makespan 0, no resources, no kinds.
    """
    kinds: dict[str, int] = {}
    for r in timeline:
        kind = r.meta.get("kind", "other")
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "makespan": timeline.makespan,
        "num_tasks": len(timeline),
        "busy": {res: timeline.busy(res) for res in timeline.resources},
        "utilization": {res: timeline.utilization(res) for res in timeline.resources},
        "task_kinds": kinds,
    }

"""Exporters: Chrome ``trace_event`` JSON and plain-text metrics.

The Chrome trace format (one ``"X"`` complete event per span, microsecond
``ts``/``dur``) loads directly into ``chrome://tracing`` or
https://ui.perfetto.dev. Two sources can share one file:

* **live spans** from a :class:`~repro.obs.span.Tracer` (wall-clock time of
  the instrumented Python executors), exported under pid 1;
* a **simulated timeline** from :class:`~repro.sim.timeline.Timeline`
  (modeled device time), exported under pid 2 with one track per resource.

Both land in the same viewer, so "what the framework did" and "what the
modeled machine did" sit one flame-graph above the other.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence, TYPE_CHECKING

from ..errors import SimulationError
from .metrics import MetricsRegistry
from .span import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports obs)
    from ..sim.timeline import Timeline

__all__ = [
    "check_finite",
    "span_events",
    "timeline_events",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "metrics_text",
]

_LIVE_PID = 1
_SIM_PID = 2


def _meta(pid: int, name: str, tid: int = 0, what: str = "process_name") -> dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": what, "args": {"name": name}}


def _json_safe(value: Any) -> Any:
    """Coerce span/task attributes to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def span_events(spans: Iterable[Span], pid: int = _LIVE_PID) -> list[dict[str, Any]]:
    """Live spans as Chrome ``"X"`` events (plus pid/tid metadata).

    Timestamps are rebased so the earliest span starts at ``ts = 0``; thread
    ids are compacted to small consecutive integers.
    """
    spans = list(spans)
    if not spans:
        return []
    t0 = min(s.start_ns for s in spans)
    tids: dict[int, int] = {}
    events: list[dict[str, Any]] = [_meta(pid, "repro live spans")]
    for s in spans:
        tid = tids.setdefault(s.tid, len(tids))
        end_ns = s.end_ns if s.end_ns is not None else s.start_ns
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start_ns - t0) / 1e3,
                "dur": (end_ns - s.start_ns) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": _json_safe(dict(s.attrs, sid=s.sid, parent=s.parent)),
            }
        )
    for real_tid, tid in tids.items():
        events.append(_meta(pid, f"thread-{real_tid}", tid, "thread_name"))
    return events


def check_finite(timeline: "Timeline") -> None:
    """Raise :class:`~repro.errors.SimulationError` on non-finite task times."""
    for r in timeline:
        if not (math.isfinite(r.start) and math.isfinite(r.end)):
            raise SimulationError(
                f"task {r.tid} ({r.label or 'unlabeled'}) has non-finite "
                f"times start={r.start} end={r.end}; cannot export a trace"
            )


def timeline_events(timeline: "Timeline", pid: int = _SIM_PID) -> list[dict[str, Any]]:
    """A simulated timeline as Chrome events: one track per resource.

    Simulated seconds map to trace microseconds. Non-finite task times are
    rejected — a NaN-duration track silently renders as an empty trace, which
    is the worst possible failure mode for a timing tool.
    """
    check_finite(timeline)
    events: list[dict[str, Any]] = [_meta(pid, "repro simulated timeline")]
    tids = {res: i for i, res in enumerate(timeline.resources)}
    for res, tid in tids.items():
        events.append(_meta(pid, res, tid, "thread_name"))
    for r in timeline:
        events.append(
            {
                "name": r.label or f"task-{r.tid}",
                "cat": str(r.meta.get("kind", "task")),
                "ph": "X",
                "ts": r.start * 1e6,
                "dur": (r.end - r.start) * 1e6,
                "pid": pid,
                "tid": tids[r.resource],
                "args": _json_safe(
                    dict(r.meta, tid=r.tid, resource=r.resource, deps=list(r.deps))
                ),
            }
        )
    return events


def chrome_trace(
    spans: Iterable[Span] = (),
    timeline: "Timeline | None" = None,
) -> dict[str, Any]:
    """The full trace document: live spans and/or a simulated timeline."""
    events = span_events(spans)
    if timeline is not None:
        events.extend(timeline_events(timeline))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    spans: Iterable[Span] = (),
    timeline: "Timeline | None" = None,
    indent: int | None = None,
) -> str:
    return json.dumps(chrome_trace(spans, timeline), indent=indent)


def write_chrome_trace(
    path: str,
    spans: Iterable[Span] = (),
    timeline: "Timeline | None" = None,
) -> int:
    """Write the trace document to ``path``; returns the number of events."""
    doc = chrome_trace(spans, timeline)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def metrics_text(registry: MetricsRegistry) -> str:
    """Plain-text metrics dump (one metric per line)."""
    return registry.render()

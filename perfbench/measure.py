"""Pure measurement helpers: percentiles, interval arithmetic, metric names.

Everything here is deterministic and free of I/O so the benchmark's own
tests can pin it down.
"""

from __future__ import annotations

import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MARGIN = 10
#: The percentile where the tail band, averaged by :func:`band_tail`, starts.
TAIL_BAND_FROM = 90.0


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest supported percentile.

    The highest percentile with at least :data:`TAIL_MARGIN` samples
    strictly greater than the reported value: the order statistic ``k``
    steps in from the top, stepped further down past ties. With too few
    samples the maximum is returned at percentile 100, and the caller
    should treat the tail as unsupported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    k = n - 1 - TAIL_MARGIN
    if k < 0:
        return float(ordered[-1]), 100.0, n
    # Step down past ties so the samples above ordered[k] really number
    # at least TAIL_MARGIN.
    while k > 0 and ordered[k] == ordered[k + 1]:
        k -= 1
    return float(ordered[k]), 100.0 * (k + 1) / n, n


def band_tail(values) -> tuple[float, float, int, int]:
    """``(value, percentile, samples, band)``: the mean of the tail band.

    The band runs from :data:`TAIL_BAND_FROM` up to the :func:`tail`
    value, the highest percentile with at least :data:`TAIL_MARGIN`
    samples beyond it; ``band`` samples are averaged and ``percentile`` is
    that upper end. A mean over the band moves smoothly when a share of requests gets
    slower, where one order statistic jumps between the fast and the slow
    requests; the samples beyond the band (a stall's few victims) are
    left out.
    """
    ordered = sorted(values)
    value, pct, n = tail(ordered)
    if n == 0:
        return 0.0, 0.0, 0, 0
    top = round(pct * n / 100.0)  # samples at or below the tail value
    start = min(int(n * TAIL_BAND_FROM / 100.0), top - 1)
    band = ordered[start:top]
    return statistics.fmean(band), pct, n, len(band)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clipped(intervals, start: float, end: float):
    """``intervals`` clipped to ``[start, end]``, empty ones dropped."""
    out = []
    for s, e in intervals:
        s, e = max(s, start), min(e, end)
        if e > s:
            out.append((s, e))
    return out


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is an iterable of ``(span_id, parent_id, start, end)``; a
    parent id of 0 marks a root. Children may overlap each other (spans
    from a pool the parent waits on); the covered part counts once, and
    only the part inside the parent's own interval is subtracted.
    """
    spans = list(spans)
    bounds = {sid: (start, end) for sid, _, start, end in spans}
    children: dict[int, list] = {}
    for sid, parent, start, end in spans:
        if parent in bounds:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = union_length(clipped(children.get(sid, ()), start, end))
        out[sid] = (end - start) - covered
    return out

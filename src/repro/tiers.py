"""The one degrade path shared by the five solver tiers.

Each tier — ``scan``, ``device``, ``dataflow``, ``batch``, ``delta`` —
sits in front of a slower, always-correct fallback and runs through
:func:`attempt` with a *trail*, a list the caller owns. A failure is
counted as ``<tier>.degraded`` and ``exec.<executor>.degraded``, marked by
a ``<tier>.degraded`` span and appended to the trail as
``{tier, outcome, reason, wall_ns}``; the caller then runs its fallback.
Deadline and cancel aborts are never degraded. :func:`annotate` folds a
trail into ``result.stats["tiers"]`` and derives ``stats["degraded"]``.
See ``docs/resilience.md`` for each tier's fault site and counter.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence, TypeVar

from .errors import ServiceTimeout, SolveCancelled
from .obs import get_metrics, get_tracer

__all__ = ["FALLBACKS", "attempt", "annotate"]

T = TypeVar("T")

#: Tier name -> the label its fallback leaves in ``stats["degraded"]``, in
#: ladder order.
FALLBACKS = {
    "scan": "wavefront",
    "device": "cpu-only",
    "dataflow": "barrier",
    "batch": "per-instance",
    "delta": "full-solve",
}
_RANK = {tier: rank for rank, tier in enumerate(FALLBACKS)}


def attempt(
    trail: list[dict[str, Any]],
    tier: str,
    fn: Callable[[], T],
    *,
    executor: str,
    problem: str,
    catch: tuple[type[BaseException], ...] = (Exception,),
) -> T | None:
    """Run ``fn``; on a ``catch`` failure record the degrade and return None.

    :class:`~repro.errors.ServiceTimeout` and
    :class:`~repro.errors.SolveCancelled` re-raise unchanged; exceptions
    outside ``catch`` propagate.
    """
    started = time.perf_counter_ns()
    try:
        return fn()
    except (ServiceTimeout, SolveCancelled):
        raise
    except catch as exc:
        wall_ns = time.perf_counter_ns() - started
        reason = f"{type(exc).__name__}: {exc}"
        metrics = get_metrics()
        metrics.counter(f"{tier}.degraded").inc()
        metrics.counter(f"exec.{executor}.degraded").inc()
        with get_tracer().span(
            f"{tier}.degraded", cat="degrade", problem=problem, reason=reason,
        ):
            pass
        trail.append({
            "tier": tier, "outcome": "degraded", "reason": reason,
            "wall_ns": wall_ns,
        })
        return None


def annotate(result, trail: Sequence[dict[str, Any]]):
    """Merge ``trail`` into ``result.stats["tiers"]``; returns ``result``.

    A fresh, ladder-ordered list replaces the old one, so results that
    share a stats list (batch replicas) are never mutated through it.
    """
    if trail:
        tiers = sorted(
            [*result.stats.get("tiers", ()), *trail],
            key=lambda entry: _RANK[entry["tier"]],
        )
        result.stats["tiers"] = tiers
        result.stats["degraded"] = ",".join(
            FALLBACKS[entry["tier"]] for entry in tiers
        )
    return result

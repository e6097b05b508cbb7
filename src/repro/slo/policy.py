"""The SLO contract one :class:`~repro.serve.SolveService` enforces.

An :class:`SLOPolicy` bundles every policy knob of the serve layer's
"policy brain" (see ``docs/serving.md``):

* **admission** — price each deadlined request with the executor's timing
  model at enqueue time and shed (or down-tier) work that cannot meet
  its deadline given the current backlog;
* **scheduling** — order the queue by earliest *feasible* deadline (EDF on
  ``deadline - predicted cost``) within each priority band instead of pure
  FIFO;
* **autoscaling** — grow/shrink the worker pool between ``min_workers`` and
  ``max_workers`` against queue-depth and latency gauges;
* **quotas** — per-tenant token buckets on ``submit()``.

Every mechanism is independently switchable so ablations (admission off,
FIFO ordering, fixed pool) run through the identical code path — the soak
harness uses exactly that to show the attainment delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["SLOPolicy"]


@dataclass(frozen=True)
class SLOPolicy:
    """Admission, scheduling, autoscaling and quota configuration.

    Parameters
    ----------
    admission:
        Price deadlined requests at ``submit()`` and reject those whose
        predicted completion overshoots the deadline with
        :class:`~repro.errors.AdmissionRejected` (after trying any
        permitted down-tier). Off: every request is admitted, as before.
    scheduling:
        Order queued work by earliest feasible deadline (latest start time
        ``deadline - predicted execution``) within each priority band.
        Off: FIFO within priority (the pre-SLO behaviour).
    downgrade:
        Allow down-tiering a request that would otherwise be rejected —
        to a cheaper executor (``downgrade_executor``) or, for requests
        marked ``downgradable=True``, from ``solve`` to ``estimate``
        (timing model only, no table). The pending handle's ``downgraded``
        attribute carries the reason so callers can tell.
    safety_factor:
        Multiplier on predicted execution time before comparing against
        the deadline — headroom for calibration error and platform jitter.
    dispatch_overhead:
        Fixed seconds added to every predicted completion: the
        enqueue -> worker-wakeup -> dispatch cost that execution pricing
        cannot see. It is what makes sub-millisecond deadlines correctly
        infeasible even on an idle service.
    process_overhead:
        Additional fixed seconds a ``backend="process"`` service adds on
        top of ``dispatch_overhead`` when pricing admissions: the
        pickle -> queue -> shared-memory-materialize round-trip each
        cross-process dispatch pays. Ignored by the thread backend.
    coalesce_share:
        Marginal cost fraction charged to a request whose batch key is
        already queued or mid-coalesce (it will share one stacked sweep,
        one cached :class:`~repro.kernels.KernelPlan` and one estimate —
        admission must not double-count that work). Only applied when the
        service has coalescing enabled.
    delta_cone_fraction:
        Expected invalidation-cone size, as a fraction of the computed
        region, used to price a request the serve cache can satisfy by a
        delta patch (:mod:`repro.delta`): admission charges one probe pass
        plus this fraction of the sweep instead of the full solve.
        Pessimistic values shed deltas the service could have afforded;
        optimistic values admit patches that will degrade to full solves —
        the EWMA calibration absorbs moderate error either way.
    min_workers / max_workers:
        Autoscaler bounds on the worker pool. The pool starts at the
        service's ``workers`` argument clamped into this range and returns
        to ``min_workers`` when traffic drains.
    scale_interval:
        Seconds between autoscaler evaluations.
    backlog_per_worker:
        Queue depth per worker above which the pool grows.
    target_latency_ms:
        Optional latency SLO: when the EWMA of request latency exceeds
        this, the pool grows even without queue backlog. ``None`` scales
        on queue depth alone.
    scale_down_after:
        Consecutive idle evaluations (empty queue, no busy workers)
        before the pool shrinks by one worker.
    default_quota:
        ``(rate_per_s, burst)`` token bucket applied to tenants without an
        explicit entry in ``tenant_quotas``; ``None`` leaves unlisted
        tenants unmetered.
    tenant_quotas:
        Per-tenant ``{name: (rate_per_s, burst)}`` overrides. A tenant
        over its bucket is rejected with
        :class:`~repro.errors.QuotaExceeded`.
    downgrade_executor:
        Down-tier map tried for requests that would be rejected, e.g.
        ``{"hetero": "cpu"}`` — the target executor must be cheaper in
        *wall clock* for the downgrade to help, which the pricer's
        per-executor calibration learns.
    """

    admission: bool = True
    scheduling: bool = True
    downgrade: bool = True
    safety_factor: float = 2.0
    dispatch_overhead: float = 0.005
    process_overhead: float = 0.02
    coalesce_share: float = 0.5
    delta_cone_fraction: float = 0.25
    min_workers: int = 1
    max_workers: int = 4
    scale_interval: float = 0.2
    backlog_per_worker: float = 2.0
    target_latency_ms: float | None = None
    scale_down_after: int = 4
    default_quota: tuple[float, float] | None = None
    tenant_quotas: Mapping[str, tuple[float, float]] = field(
        default_factory=dict
    )
    downgrade_executor: Mapping[str, str] = field(
        default_factory=lambda: {"hetero": "cpu"}
    )

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) cannot be below "
                f"min_workers ({self.min_workers})"
            )
        if self.safety_factor <= 0:
            raise ValueError(
                f"safety_factor must be positive, got {self.safety_factor}"
            )
        if self.dispatch_overhead < 0:
            raise ValueError(
                "dispatch_overhead cannot be negative, got "
                f"{self.dispatch_overhead}"
            )
        if self.process_overhead < 0:
            raise ValueError(
                "process_overhead cannot be negative, got "
                f"{self.process_overhead}"
            )
        if not 0.0 < self.coalesce_share <= 1.0:
            raise ValueError(
                f"coalesce_share must be in (0, 1], got {self.coalesce_share}"
            )
        if not 0.0 < self.delta_cone_fraction <= 1.0:
            raise ValueError(
                "delta_cone_fraction must be in (0, 1], got "
                f"{self.delta_cone_fraction}"
            )
        if self.scale_interval <= 0:
            raise ValueError(
                f"scale_interval must be positive, got {self.scale_interval}"
            )
        if self.backlog_per_worker <= 0:
            raise ValueError(
                "backlog_per_worker must be positive, got "
                f"{self.backlog_per_worker}"
            )
        if self.scale_down_after < 1:
            raise ValueError(
                f"scale_down_after must be >= 1, got {self.scale_down_after}"
            )
        for name, quota in list(self.tenant_quotas.items()) + (
            [("<default>", self.default_quota)] if self.default_quota else []
        ):
            rate, burst = quota
            if rate <= 0 or burst < 1:
                raise ValueError(
                    f"quota for {name!r} needs rate > 0 and burst >= 1, "
                    f"got {quota!r}"
                )

    def quota_for(self, tenant: str) -> tuple[float, float] | None:
        """The ``(rate, burst)`` bucket spec for ``tenant``, if metered."""
        return self.tenant_quotas.get(tenant, self.default_quota)

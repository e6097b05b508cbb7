"""The concurrent solve service: bounded queue + worker pool + result cache.

:class:`SolveService` turns the synchronous ``Framework.solve()`` call into a
stream-of-requests server (the ROADMAP's production-traffic seam):

* ``submit()`` enqueues a :class:`~repro.serve.request.SolveRequest` onto a
  **bounded priority queue** (smaller ``priority`` first, FIFO within a
  priority) and returns a :class:`PendingSolve` future immediately; a full
  queue rejects with :class:`~repro.errors.ServiceOverloaded` — backpressure,
  not unbounded buffering;
* a pool of worker threads drains the queue, resolving each request through
  the **content-keyed LRU result cache** or a fresh ``Framework`` run;
* per-request **deadlines** are enforced end to end: a request past its
  deadline while still queued fails with
  :class:`~repro.errors.ServiceTimeout` without occupying a worker, and the
  deadline (plus a per-request :class:`~repro.cancel.CancelToken`) travels
  into the executor, which aborts cooperatively at the next wavefront
  boundary — an expired request frees its worker within one wavefront;
* a failed execution is **retried with exponential backoff and jitter**,
  re-checking the remaining deadline before each attempt (never sleeping
  into a guaranteed timeout);
* with ``coalesce_window > 0``, a worker that picks up a request briefly
  drains **batch-compatible** queued requests (same
  :func:`repro.batch.batch_key`) and executes them as one stacked sweep —
  per-request caching, deadlines, cancellation and degradation semantics
  are preserved member by member (see ``docs/batching.md``).

Everything is instrumented through :mod:`repro.obs`: a ``serve.queue.depth``
gauge, ``serve.cache.hits``/``serve.cache.misses`` counters, latency
histograms (``serve.queue_wait_ms``, ``serve.execute_ms``,
``serve.latency_ms``) and one ``serve.request`` span per processed request.
``serve.execute`` is a fault-injection site (see :mod:`repro.faults` and
``docs/resilience.md``). See ``docs/serving.md`` for failure semantics.

Execution itself is pluggable (:mod:`repro.serve.backends`): the default
``"thread"`` backend runs solves on the worker threads in-process, while
``backend="process"`` ships them to a pool of spawned worker processes with
zero-copy shared-memory result transport and batch-key sharding — see
``docs/serving.md`` ("Choosing a backend").

Usage::

    from repro.serve import ServiceConfig, SolveRequest, SolveService

    cfg = ServiceConfig(workers=4, queue_size=256, cache_size=128)
    with SolveService(config=cfg) as svc:
        pending = [svc.submit(SolveRequest(p)) for p in problems]
        results = [p.result() for p in pending]
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Iterable

from ..batch import BatchItem, batch_key, item_options
from ..cancel import CancelToken
from ..core.framework import Framework
from ..core.problem import LDDPProblem
from ..errors import (
    AdmissionRejected,
    QuotaExceeded,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
    SolveCancelled,
)
from ..delta import delta_applicable, delta_key, delta_patch
from ..exec.base import SolveResult
from ..faults import check_fault
from ..machine.platform import Platform
from ..obs import get_metrics, get_tracer
from ..slo import AdmissionController, Autoscaler, Pricer, QuotaManager
from ..tiers import annotate, attempt
from .backends import make_backend
from .cache import ResultCache
from .config import ServiceConfig
from .request import SolveRequest, request_key
from .shm import SegmentIndex

__all__ = ["PendingSolve", "SolveService"]

_BATCH_KEY_UNSET = object()  # memo sentinel for PendingSolve._batch_key
_SETTLED = object()  # triage outcome: the request needs no execution


class PendingSolve:
    """Handle for one submitted request — a future with deadline semantics."""

    def __init__(self, request: SolveRequest, deadline: float | None) -> None:
        self.request = request
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.cache_hit: bool | None = None  # set by the worker
        # Effective execution plan: identical to the request unless the SLO
        # admission controller down-tiered it at submit time.
        self.effective_executor: str = request.executor
        self.effective_functional: bool = request.functional
        self.downgraded: str | None = None  # admission down-tier reason
        # One token per request: reuse a caller-supplied one so firing either
        # side aborts the same run.
        opts = request.options
        self.cancel_token: CancelToken = (
            opts.cancel_token
            if opts is not None and opts.cancel_token is not None
            else CancelToken()
        )
        self._future: Future = Future()
        self._batch_key = _BATCH_KEY_UNSET  # lazily memoized by the service
        self._delta_key = _BATCH_KEY_UNSET  # near-match key, memoized too
        self._units: float | None = None  # closed-form price (SLO mode)
        self._priced_wall: float = 0.0  # predicted wall s, backlog accounting

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel if still queued; running/finished requests are unaffected."""
        return self._future.cancel()

    def request_cancel(self) -> bool:
        """Cancel queued work, or cooperatively abort a running solve.

        Queued requests are cancelled outright (as :meth:`cancel`). A request
        already running has its :attr:`cancel_token` fired instead: the worker
        aborts at its next wavefront boundary and stores
        :class:`~repro.errors.SolveCancelled`. Returns ``True`` when the
        request is cancelled or the abort was signalled in time — best-effort
        for running work, since the solve may complete before it observes the
        token.
        """
        if self._future.cancel():
            return True
        self.cancel_token.cancel()
        return not self._future.done()

    def exception(self, timeout: float | None = None):
        """The exception the worker stored, or ``None`` on success.

        Mirrors :meth:`concurrent.futures.Future.exception`: an exception
        *stored in the future* — including a worker-side
        :class:`~repro.errors.ServiceTimeout` — is **returned**, not raised.
        Raised are only the waiting failures: :class:`ServiceTimeout` when
        the request's own deadline passes while still waiting, and
        :class:`concurrent.futures.TimeoutError` when the caller's
        ``timeout`` elapses first.
        """
        return self._wait(self._future.exception, timeout)

    def result(self, timeout: float | None = None) -> SolveResult:
        """Wait for the result.

        Raises :class:`ServiceTimeout` once the request's own deadline has
        passed, :class:`concurrent.futures.TimeoutError` if the caller's
        ``timeout`` elapses first, or the worker's exception on failure.
        """
        return self._wait(self._future.result, timeout)

    def _wait(self, get, timeout: float | None):
        """Call the future's ``get`` within the caller's and our deadline."""
        budget = timeout
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            budget = remaining if budget is None else min(budget, remaining)
        try:
            return get(budget)
        except FutureTimeoutError:
            if (
                self.deadline is not None
                and time.monotonic() >= self.deadline
                and not self._future.done()
            ):
                raise ServiceTimeout(
                    f"request for {self.request.problem.name!r} exceeded its "
                    f"{self.request.timeout!r} s timeout"
                ) from None
            raise


class SolveService:
    """Bounded worker-pool solve server with a content-keyed result cache.

    Parameters
    ----------
    platform:
        Machine model shared by every request (default ``hetero_high``).
    config:
        A :class:`~repro.serve.config.ServiceConfig` — the one documented
        way to configure the service (queue, cache, retries, coalescing,
        SLO policy, and the execution ``backend``). ``stats()["config"]``
        echoes the resolved config back.

    Execution is delegated to the configured backend
    (:mod:`repro.serve.backends`): ``"thread"`` runs solves on the service's
    own worker threads; ``"process"`` ships them to a pool of spawned
    worker processes (paired 1:1 with the dispatch threads) with
    shared-memory result transport and batch-key sharding. The result cache
    follows the backend: a copying LRU (:class:`~repro.serve.cache.ResultCache`)
    in-process, a zero-copy :class:`~repro.serve.shm.SegmentIndex` over the
    shared-memory segments for the process pool.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        if config is None:
            config = ServiceConfig()
        elif not isinstance(config, ServiceConfig):
            raise TypeError(
                f"config must be a ServiceConfig, got {type(config).__name__}"
            )
        slo = config.slo
        if slo is not None:
            config = config.replace(workers=max(
                slo.min_workers, min(slo.max_workers, config.workers)
            ))
        self.config = config
        self.framework = Framework(platform, config.options)
        self.queue_size = config.queue_size
        self.default_timeout = config.default_timeout
        self.retries = config.retries
        self.backoff_base = config.backoff_base
        self.backoff_max = config.backoff_max
        self.coalesce_window = config.coalesce_window
        self.max_batch = config.max_batch
        self._sleep = time.sleep  # patchable seam for backoff tests
        self._rng = random.Random()
        self._workers: list[threading.Thread] = []
        self._all_workers: list[threading.Thread] = []
        self._backend = make_backend(config, self.framework)
        # Batch keys are computed only where something reads them: the
        # coalescer groups by them, the process backend shards by them.
        self._keyed = config.coalesce_window > 0 or config.backend == "process"
        self.cache: ResultCache | SegmentIndex | None = None
        if config.cache_size > 0:
            self.cache = (
                SegmentIndex(config.cache_size)
                if config.backend == "process"
                else ResultCache(config.cache_size)
            )
        self._queue: list[tuple[int, float, int, PendingSolve]] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = 0
        self._closed = False
        self._busy = 0  # workers currently processing a request
        self._backlog_wall = 0.0  # predicted wall s of queued work (SLO)
        self._queued_keys: dict[str, int] = {}  # batch key -> queued count
        self._active_batch_keys: dict[str, int] = {}  # mid-coalesce keys
        self._latency_ewma: float | None = None  # ms, autoscaler signal
        # -- SLO machinery (all None/off without a policy) ---------------------
        self.slo = slo
        self._pricer: Pricer | None = None
        self._admission: AdmissionController | None = None
        self._quotas: QuotaManager | None = None
        self._autoscaler: Autoscaler | None = None
        self._stop_scaling = threading.Event()
        self._scaler_thread: threading.Thread | None = None
        self._retire = 0  # workers asked to exit at their next idle check
        self._counters = {
            "admitted": 0, "shed": 0, "downgraded": 0, "quota_rejected": 0,
            "scale_ups": 0, "scale_downs": 0,
        }
        # Process dispatch pays a real IPC round-trip the execution price
        # cannot see; admission adds it on top of dispatch_overhead.
        self._extra_overhead = (
            slo.process_overhead
            if slo is not None and config.backend == "process" else 0.0
        )
        if slo is not None:
            self._pricer = Pricer(self.framework)
            self._admission = AdmissionController(slo, self._pricer)
            self._quotas = QuotaManager(slo)
            self._autoscaler = Autoscaler(slo)
        for _ in range(config.workers):
            self._spawn_worker()
        get_metrics().gauge("serve.workers").set(len(self._workers))
        if slo is not None:
            self._scaler_thread = threading.Thread(
                target=self._autoscale_loop, name="solve-autoscaler",
                daemon=True,
            )
            self._scaler_thread.start()

    # -- submission ------------------------------------------------------------

    def submit(self, request: SolveRequest) -> PendingSolve:
        """Enqueue a request; returns immediately with a future handle.

        With an :class:`~repro.slo.SLOPolicy` installed this is also the
        *only* place policy can refuse work: tenant quota first
        (:class:`~repro.errors.QuotaExceeded`), then closed-form admission
        (:class:`~repro.errors.AdmissionRejected` or a down-tier) — an
        admitted request is never shed later.
        """
        if not isinstance(request, SolveRequest):
            raise TypeError(
                f"submit() takes a SolveRequest, got "
                f"{type(request).__name__}; wrap a bare problem as "
                "SolveRequest(problem) or call submit_problem()"
            )
        metrics = get_metrics()
        if request.functional:
            # Estimate-only instances fail here, at submission, with a clear
            # error — not with a KeyError inside a worker thread.
            request.problem.require_solvable()
        units = None
        key = _BATCH_KEY_UNSET
        if self.slo is not None:
            # Price outside the lock: batch-key hashing and the closed-form
            # scan are pure, and the LRU makes repeat keys O(1).
            key = batch_key(
                request.problem,
                executor=request.executor,
                options=request.options or self.framework.options,
                params=request.params,
                functional=request.functional,
            )
            options = request.options or self.framework.options
            delta_fraction = None
            if (
                options.delta
                and request.functional
                and isinstance(self.cache, ResultCache)
                and delta_applicable(request.problem, options) is None
            ):
                dkey = delta_key(
                    request.problem, options=options, params=request.params
                )
                if dkey is not None and self.cache.has_base(dkey):
                    # A near-match base is cached: price the request as the
                    # delta patch it will most likely run, not the full
                    # solve it avoids. The suffixed LRU key keeps full and
                    # delta prices for one batch shape apart.
                    delta_fraction = self.slo.delta_cone_fraction
            units = self._pricer.units(
                request.problem,
                options=options,
                params=request.params,
                key=(
                    key + ":delta"
                    if (delta_fraction is not None and key is not None)
                    else key
                ),
                executor=request.executor,
                delta_cone_fraction=delta_fraction,
            )
        with self._not_empty:
            if self._closed:
                raise ServiceClosed("service is closed; no further requests")
            if len(self._queue) >= self.queue_size:
                metrics.counter("serve.requests.rejected").inc()
                raise ServiceOverloaded(
                    f"request queue is full ({self.queue_size} waiting); "
                    "back off and retry"
                )
            timeout = (
                request.timeout if request.timeout is not None
                else self.default_timeout
            )
            deadline = None if timeout is None else time.monotonic() + timeout
            pending = PendingSolve(request, deadline)
            order = 0.0
            if self.slo is not None:
                if self._quotas is not None and not self._quotas.admit(
                    request.tenant
                ):
                    self._counters["quota_rejected"] += 1
                    metrics.counter("serve.quota.rejected").inc()
                    raise QuotaExceeded(
                        f"tenant {request.tenant!r} is over its quota "
                        f"({self.slo.quota_for(request.tenant)!r}); "
                        "back off and retry"
                    )
                pending._batch_key = key
                pending._units = units
                order = self._admit(pending, timeout, units, key, metrics)
            self._seq += 1
            heapq.heappush(
                self._queue, (request.priority, order, self._seq, pending)
            )
            self._note_enqueued(pending)
            metrics.counter("serve.requests.submitted").inc()
            metrics.gauge("serve.queue.depth").set(len(self._queue))
            # notify_all, not notify: with coalescing on, a worker sitting in
            # its coalescing wait shares this condition with idle workers — a
            # single notify could be absorbed by the coalescer and strand the
            # request until the window closes.
            self._not_empty.notify_all()
        return pending

    def _admit(self, pending, timeout, units, key, metrics) -> float:
        """SLO admission for one submission (caller holds the lock).

        Raises :class:`AdmissionRejected` for priced-out requests, applies
        down-tiers to ``pending``'s effective plan, and returns the heap
        ordering key — latest feasible start under EDF scheduling, a
        constant otherwise.
        """
        policy = self.slo
        request = pending.request
        decision = None
        if policy.admission and timeout is not None:
            decision = self._admission.decide(
                deadline_remaining=timeout,
                units=units,
                executor=request.executor,
                functional=request.functional,
                backlog_wall=self._backlog_wall,
                workers=len(self._workers),
                downgradable=request.downgradable,
                coalescible=self._coalescible(key),
                extra_overhead=self._extra_overhead,
            )
            if not decision.admitted:
                self._counters["shed"] += 1
                metrics.counter("serve.admission.shed").inc()
                raise AdmissionRejected(
                    f"request for {request.problem.name!r} shed at "
                    f"admission: {decision.reason}"
                )
            if decision.action == "downgrade":
                pending.effective_executor = decision.executor
                pending.effective_functional = decision.functional
                pending.downgraded = decision.reason
                # The down-tiered run coalesces with its own kind, not with
                # full-fidelity batch-mates: recompute the key.
                pending._batch_key = batch_key(
                    request.problem,
                    executor=decision.executor,
                    options=request.options or self.framework.options,
                    params=request.params,
                    functional=decision.functional,
                )
                self._counters["downgraded"] += 1
                metrics.counter("serve.admission.downgraded").inc()
        self._counters["admitted"] += 1
        metrics.counter("serve.admission.admitted").inc()
        predicted = (
            decision.predicted_exec if decision is not None
            and decision.predicted_exec is not None
            else (
                self._pricer.predict(
                    units, pending.effective_executor,
                    pending.effective_functional,
                ) if units is not None else 0.0
            )
        )
        pending._priced_wall = predicted
        if policy.scheduling and pending.deadline is not None:
            # EDF on feasibility: run whoever must start soonest to still
            # make its deadline. No-deadline work sorts last in its band.
            return pending.deadline - predicted
        return 0.0 if pending.deadline is not None or not policy.scheduling \
            else float("inf")

    def _coalescible(self, key: str | None) -> bool:
        """Whether batch-compatible work is queued or mid-coalesce now."""
        if key is None or self.coalesce_window <= 0:
            return False
        return bool(
            self._queued_keys.get(key) or self._active_batch_keys.get(key)
        )

    def _note_enqueued(self, pending: PendingSolve) -> None:
        """Backlog/key accounting for one queued request (lock held)."""
        self._backlog_wall += pending._priced_wall
        if self.coalesce_window > 0 and self.slo is not None:
            key = pending._batch_key
            if key is not _BATCH_KEY_UNSET and key is not None:
                self._queued_keys[key] = self._queued_keys.get(key, 0) + 1

    def _note_dequeued(self, pending: PendingSolve) -> None:
        """Reverse of :meth:`_note_enqueued` (lock held)."""
        self._backlog_wall = max(0.0, self._backlog_wall - pending._priced_wall)
        if self.coalesce_window > 0 and self.slo is not None:
            key = pending._batch_key
            if key is not _BATCH_KEY_UNSET and key is not None:
                count = self._queued_keys.get(key, 0) - 1
                if count > 0:
                    self._queued_keys[key] = count
                else:
                    self._queued_keys.pop(key, None)

    def submit_problem(self, problem: LDDPProblem, **kwargs) -> PendingSolve:
        """Shorthand: wrap ``problem`` in a :class:`SolveRequest` and submit."""
        return self.submit(SolveRequest(problem, **kwargs))

    def solve(self, problem: LDDPProblem, **kwargs) -> SolveResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit_problem(problem, **kwargs).result()

    def map(self, problems: Iterable[LDDPProblem], **kwargs) -> list[SolveResult]:
        """Submit a batch and wait for all results, in input order."""
        pending = [self.submit_problem(p, **kwargs) for p in problems]
        return [p.result() for p in pending]

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain the queue (``wait``) or fail it fast.

        Joins every worker ever started — including workers the autoscaler
        already retired — so a closed service provably leaks no threads.
        """
        self._stop_scaling.set()
        with self._not_empty:
            self._closed = True
            drained: list[PendingSolve] = []
            if not wait:
                drained = [entry[-1] for entry in self._queue]
                self._queue.clear()
                self._backlog_wall = 0.0
                self._queued_keys.clear()
                get_metrics().gauge("serve.queue.depth").set(0)
            self._not_empty.notify_all()
        for pending in drained:
            pending._future.cancel()
        if self._scaler_thread is not None:
            self._scaler_thread.join()
        for t in self._all_workers:
            t.join()
        self._backend.close()
        if isinstance(self.cache, SegmentIndex):
            # Drop the index's segment references: with every result handed
            # out and now the index drained, the last reference drop unlinks
            # each block — a closed service leaks no /dev/shm segments.
            self.cache.clear()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=True)

    # -- introspection ---------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict[str, object]:
        """A snapshot for dashboards: queue, workers, cache, SLO counters.

        ``workers`` / ``workers_busy`` are **backend-aggregated**: they
        count the execution units of whichever backend is configured
        (worker processes for ``backend="process"``, the in-process pool
        otherwise) rather than reading thread-pool fields directly —
        dispatch threads and backend workers are paired 1:1, so the busy
        count is the number of in-flight executions either way. The
        thread-pool view stays available as ``dispatch_threads`` plus
        ``workers_started`` (threads ever spawned) and ``workers_alive``
        (threads not yet joined). ``config`` echoes the resolved
        :class:`~repro.serve.config.ServiceConfig`; ``backend`` carries the
        backend's own aggregation (for the process pool: pids, restart and
        inline-fallback counts, per-worker-process job counters and metric
        snapshots). With an :class:`~repro.slo.SLOPolicy` installed, an
        ``"slo"`` sub-dict adds the admission/shed/downgrade and autoscale
        counters, predicted backlog, pricer calibration and per-tenant
        quota books.
        """
        with self._lock:
            depth = len(self._queue)
            closed = self._closed
            threads = len(self._workers)
            busy = self._busy
            started = len(self._all_workers)
            alive = sum(1 for t in self._all_workers if t.is_alive())
            counters = dict(self._counters)
            backlog = self._backlog_wall
            latency = self._latency_ewma
        backend_stats = self._backend.stats()
        workers = backend_stats.get("workers", threads)
        get_metrics().gauge("serve.workers").set(workers)
        get_metrics().gauge("serve.workers_busy").set(busy)
        out: dict[str, object] = {
            "queue_depth": depth,
            "queue_size": self.queue_size,
            "workers": workers,
            "workers_busy": busy,
            "dispatch_threads": threads,
            "workers_started": started,
            "workers_alive": alive,
            "closed": closed,
            "cache": None if self.cache is None else self.cache.stats(),
            "config": self.config.describe(),
            "backend": backend_stats,
        }
        if self.slo is not None:
            out["slo"] = {
                **counters,
                "backlog_wall_s": backlog,
                "latency_ewma_ms": latency,
                "calibration": self._pricer.calibration(),
                "tenants": self._quotas.snapshot(),
            }
        return out

    # -- worker internals ------------------------------------------------------

    def _spawn_worker(self) -> None:
        """Start one worker thread (lock not required; threads self-register)."""
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"solve-worker-{len(self._all_workers)}",
            daemon=True,
        )
        self._workers.append(thread)
        self._all_workers.append(thread)
        thread.start()

    def _worker_loop(self) -> None:
        me = threading.current_thread()
        while True:
            with self._not_empty:
                while not self._queue and not self._closed:
                    if self._retire > 0:
                        # Scale-down: retire between requests, never mid-solve.
                        self._retire -= 1
                        if me in self._workers:
                            self._workers.remove(me)
                        get_metrics().gauge("serve.workers").set(
                            len(self._workers)
                        )
                        return
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                entry = heapq.heappop(self._queue)
                pending = entry[-1]
                self._note_dequeued(pending)
                self._busy += 1
                get_metrics().gauge("serve.queue.depth").set(len(self._queue))
            try:
                if self.coalesce_window > 0:
                    self._process_coalesced(pending)
                else:
                    self._process([pending])
            finally:
                with self._lock:
                    self._busy -= 1

    # -- autoscaling -----------------------------------------------------------

    def _autoscale_loop(self) -> None:
        """Background thread: reconcile pool size every ``scale_interval``."""
        metrics = get_metrics()
        while not self._stop_scaling.wait(self.slo.scale_interval):
            resize_to = None
            with self._not_empty:
                if self._closed:
                    return
                target = self._autoscaler.desired(
                    depth=len(self._queue),
                    workers=len(self._workers),
                    busy=self._busy,
                    latency_ms=self._latency_ewma,
                )
                current = len(self._workers)
                if target > current:
                    for _ in range(target - current):
                        self._spawn_worker()
                    self._counters["scale_ups"] += 1
                    metrics.counter("serve.autoscale.up").inc(target - current)
                    metrics.gauge("serve.workers").set(len(self._workers))
                    resize_to = target
                elif target < current:
                    # Ask (current - target) idle workers to exit at their
                    # next queue check; a worker mid-solve finishes first.
                    self._retire += current - target
                    self._counters["scale_downs"] += 1
                    metrics.counter("serve.autoscale.down").inc(
                        current - target
                    )
                    self._not_empty.notify_all()
                    resize_to = target
            if resize_to is not None:
                # Backend pool follows the dispatch pool 1:1; resized
                # outside the service lock (process spawn is slow, and the
                # backend takes its own lock).
                self._backend.resize(resize_to)

    def _note_latency(self, wall_ms: float) -> None:
        """Feed the autoscaler's latency EWMA (lock held by caller)."""
        prior = self._latency_ewma
        self._latency_ewma = (
            wall_ms if prior is None else 0.8 * prior + 0.2 * wall_ms
        )
        get_metrics().gauge("serve.latency.ewma_ms").set(self._latency_ewma)

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential delay before retry ``attempt`` (1-based)."""
        delay = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        return delay * (0.5 + self._rng.random())

    def _span(self, pending: PendingSolve, coalesced: int = 1):
        """The ``serve.request`` span of one request's effective plan."""
        request = pending.request
        attrs = {}
        if pending.downgraded is not None:
            attrs["downgraded"] = pending.downgraded
        if coalesced > 1:
            attrs["coalesced"] = coalesced
        return get_tracer().span(
            "serve.request", cat="serve", problem=request.problem.name,
            executor=pending.effective_executor, priority=request.priority,
            **attrs,
        )

    def _triage(self, pending: PendingSolve):
        """Claim one request and settle it if it needs no execution.

        Returns ``_SETTLED`` when the request was cancelled while queued,
        expired in the queue or hit the cache; otherwise its cache key
        (``None`` when uncacheable): the request still has to run.
        """
        metrics = get_metrics()
        request = pending.request
        if not pending._future.set_running_or_notify_cancel():
            metrics.counter("serve.requests.cancelled").inc()
            return _SETTLED
        metrics.histogram("serve.queue_wait_ms").observe(
            (time.monotonic() - pending.submitted_at) * 1e3
        )
        if pending.deadline is not None and time.monotonic() >= pending.deadline:
            metrics.counter("serve.requests.timeout").inc()
            with self._span(pending) as span:
                span.set(outcome="timeout")
            pending._future.set_exception(ServiceTimeout(
                f"request for {request.problem.name!r} expired after "
                f"{request.timeout or self.default_timeout!r} s in the queue"
            ))
            return _SETTLED
        key = None
        if self.cache is not None and request.cacheable:
            key = request_key(
                request,
                self.framework.platform,
                request.options or self.framework.options,
                executor=pending.effective_executor,
                functional=pending.effective_functional,
            )
            hit = self.cache.get(key)
            if hit is not None:
                pending.cache_hit = True
                metrics.counter("serve.cache.hits").inc()
                metrics.histogram("serve.latency_ms").observe(
                    (time.monotonic() - pending.submitted_at) * 1e3
                )
                metrics.counter("serve.requests.completed").inc()
                with self._span(pending) as span:
                    span.set(outcome="hit")
                pending._future.set_result(hit)
                return _SETTLED
            metrics.counter("serve.cache.misses").inc()
        pending.cache_hit = False
        return key

    def _process(self, members: list[PendingSolve]) -> None:
        """Resolve claimed requests: triage each, then run the survivors.

        A lone request is a group of one. Per member, in order: claim the
        future (drop if cancelled), fail an expired deadline, serve a cache
        hit — all *before* execution, so a cached or dead request never
        pays for a run. A single survivor takes the per-request path
        (:meth:`_attempt`). Several run as one
        :func:`repro.batch.execute_items` group with their deadlines and
        cancel tokens live per wavefront; a member whose batched run fails
        retryably falls back to the per-request path.
        """
        run = []
        for pending in members:
            key = self._triage(pending)
            if key is not _SETTLED:
                run.append((pending, key))
        if not run:
            return
        if len(run) == 1:
            pending, key = run[0]
            with self._span(pending) as span:
                self._attempt(pending, span, key)
            return

        metrics = get_metrics()
        metrics.counter("batch.coalesced").inc(len(run))
        items = [self._item(pending, k) for k, (pending, _) in enumerate(run)]
        started = time.monotonic()
        with metrics.histogram("serve.execute_ms").time():
            outcomes = self._backend.execute_batch(items)
        # Calibrate on the *marginal* cost: the batch amortises one sweep
        # over len(run) members, so each member's observed wall share is the
        # honest per-request price for future coalesced admissions.
        member_wall = (time.monotonic() - started) / len(run)
        for (pending, key), outcome in zip(run, outcomes):
            with self._span(pending, coalesced=len(run)) as span:
                if isinstance(outcome, SolveResult):
                    self._observe_run(pending, member_wall)
                    self._finish(pending, span, key, outcome)
                elif isinstance(outcome, (SolveCancelled, ServiceTimeout)):
                    self._stop(pending, span, outcome)
                else:
                    # Retryable failure inside the batch: this member gets
                    # the full per-request retry path (fresh attempts — the
                    # batched try was the free one).
                    span.set(batch_failed=type(outcome).__name__)
                    self._attempt(pending, span, key)

    def _item(self, pending: PendingSolve, index: int = 0) -> BatchItem:
        """One request as a :class:`~repro.batch.BatchItem` for a backend.

        The item carries the effective plan and the control plane: its
        deadline is the earlier of the request's and its options' own, and
        the request's cancel token rides along
        (:func:`repro.batch.item_options` merges both into the run's
        options). The batch key is set only when something reads it.
        """
        request = pending.request
        options = request.options or self.framework.options
        deadline = pending.deadline
        if options.deadline is not None:
            deadline = (
                options.deadline if deadline is None
                else min(deadline, options.deadline)
            )
        return BatchItem(
            index=index,
            problem=request.problem,
            executor=pending.effective_executor,
            options=options,
            params=request.params,
            functional=pending.effective_functional,
            deadline=deadline,
            cancel_token=pending.cancel_token,
            key=self._batch_key_of(pending) if self._keyed else None,
        )

    def _stop(self, pending: PendingSolve, span, exc: Exception) -> None:
        """Settle a run that its own cancel token or deadline stopped."""
        cancelled = isinstance(exc, SolveCancelled)
        get_metrics().counter(
            "serve.requests.aborted" if cancelled else "serve.requests.timeout"
        ).inc()
        span.set(outcome="cancelled" if cancelled else "timeout")
        pending._future.set_exception(exc)

    def _attempt(self, pending: PendingSolve, span, key) -> None:
        """The retry loop for one claimed request: execute, back off, finish.

        ``span`` is the request's open ``serve.request`` span; ``key`` its
        cache key (``None`` when uncacheable). Runs a lone request, and a
        coalesced member whose batched run failed.

        With ``ExecOptions.delta`` the delta tier runs first: an exact-miss
        request with a cached near-match base is served by patching the
        base's table (:mod:`repro.delta`) — bit-identical, counted as
        ``delta.solved``. A failed patch is the ``delta`` tier's degrade
        (:mod:`repro.tiers`): it falls through to the full solve below,
        never into the retry accounting (retrying a patch that just proved
        inapplicable is pointless). Timeouts and cancellations raised
        inside the patch surface normally.
        """
        metrics = get_metrics()
        request = pending.request
        item = self._item(pending)
        trail: list = []
        attempts = 0
        while True:
            try:
                result = (
                    self._try_delta(pending, item, span, key, trail)
                    if attempts == 0 else None
                )
                if result is None:
                    check_fault("serve.execute")
                    started = time.monotonic()
                    with metrics.histogram("serve.execute_ms").time():
                        result = self._backend.execute(item)
                    self._observe_run(pending, time.monotonic() - started)
                break
            except (SolveCancelled, ServiceTimeout) as exc:
                # The executor hit the deadline or the token mid-run; the
                # worker is free again within one wavefront. Never retried.
                self._stop(pending, span, exc)
                return
            except Exception as exc:  # noqa: BLE001 - surfaced via future
                attempts += 1
                if attempts > self.retries:
                    metrics.counter("serve.requests.failed").inc()
                    span.set(outcome="failed", error=type(exc).__name__)
                    pending._future.set_exception(exc)
                    return
                delay = self._backoff_delay(attempts)
                if pending.deadline is not None:
                    remaining = pending.deadline - time.monotonic()
                    if remaining <= delay:
                        # Fail fast: sleeping would overshoot the
                        # deadline, so surface the timeout now with the
                        # triggering failure chained for diagnosis.
                        metrics.counter("serve.requests.timeout").inc()
                        span.set(outcome="timeout", retried=attempts)
                        timeout_exc = ServiceTimeout(
                            f"request for {request.problem.name!r} has "
                            f"{max(0.0, remaining):.3f} s left, less than "
                            f"the {delay:.3f} s retry backoff"
                        )
                        timeout_exc.__cause__ = exc
                        pending._future.set_exception(timeout_exc)
                        return
                metrics.counter("serve.retries").inc()
                span.set(retried=attempts)
                if delay > 0:
                    self._sleep(delay)

        self._finish(pending, span, key, annotate(result, trail))

    def _observe_run(self, pending: PendingSolve, wall: float) -> None:
        """Feed one measured execution back into the pricer's calibration."""
        if self._pricer is not None and pending._units is not None:
            self._pricer.observe(
                pending.effective_executor,
                pending.effective_functional,
                pending._units,
                wall,
            )

    def _delta_key_of(self, pending: PendingSolve) -> str | None:
        """Memoized :func:`repro.delta.delta_key` for one request."""
        memo = pending._delta_key
        if memo is _BATCH_KEY_UNSET:
            request = pending.request
            memo = pending._delta_key = delta_key(
                request.problem,
                options=request.options or self.framework.options,
                params=request.params,
            )
        return memo

    def _try_delta(
        self, pending: PendingSolve, item: BatchItem, span, key, trail: list
    ) -> SolveResult | None:
        """Serve an exact-cache miss by patching a near-match base, if any.

        Returns the patched result (bit-identical to a fresh solve), or
        ``None`` — either because the request is not a delta candidate (no
        opt-in, no base cached, structurally ineligible) or because the
        patch degraded onto ``trail``. Only the thread backend's
        :class:`ResultCache` holds base payloads; the process backend's
        segment index does not, so delta is silently a no-op there.
        """
        if key is None or not isinstance(self.cache, ResultCache):
            return None
        request = pending.request
        options = request.options or self.framework.options
        if not options.delta or not pending.effective_functional:
            return None
        if delta_applicable(request.problem, options) is not None:
            return None
        dkey = self._delta_key_of(pending)
        if dkey is None:
            return None
        base = self.cache.get_base(dkey)
        if base is None:
            return None
        base_payload, base_result = base
        result = attempt(
            trail, "delta",
            lambda: delta_patch(
                request.problem,
                base_payload,
                base_result,
                platform=self.framework.platform,
                options=item_options(item, self.framework),
                executor=pending.effective_executor,
            ),
            executor=pending.effective_executor, problem=request.problem.name,
        )
        if result is not None:
            get_metrics().counter("delta.solved").inc()
            self.cache.note_delta_hit()
            span.set(delta=True)
        return result

    def _base_key_for(
        self, pending: PendingSolve, result: SolveResult
    ) -> str | None:
        """The near-match key to register ``result`` under, or ``None``.

        Any cacheable functional result of a delta-enabled request becomes
        a base — including delta-patched results, so edit chains keep
        patching against the freshest table instead of the original.
        """
        request = pending.request
        options = request.options or self.framework.options
        if not options.delta or not isinstance(self.cache, ResultCache):
            return None
        if not pending.effective_functional or result.table is None:
            return None
        if delta_applicable(request.problem, options) is not None:
            return None
        return self._delta_key_of(pending)

    def _finish(self, pending: PendingSolve, span, key, result: SolveResult) -> None:
        """Cache, count and resolve one successfully executed request."""
        metrics = get_metrics()
        if key is not None:
            base_key = self._base_key_for(pending, result)
            if base_key is not None:
                # Register the result as a delta base: the request's payload
                # is already a frozen snapshot (SolveRequest freezes it), so
                # it is safe to keep as the diffing reference.
                self.cache.put(
                    key, result,
                    base_key=base_key,
                    payload=pending.request.problem.payload,
                )
            else:
                self.cache.put(key, result)
        metrics.counter("serve.requests.completed").inc()
        latency_ms = (time.monotonic() - pending.submitted_at) * 1e3
        metrics.histogram("serve.latency_ms").observe(latency_ms)
        if self.slo is not None:
            with self._lock:
                self._note_latency(latency_ms)
        if result.stats.get("degraded"):
            span.set(degraded=result.stats["degraded"])
        span.set(outcome="miss" if key is not None else "uncached")
        pending._future.set_result(result)

    # -- coalescing ------------------------------------------------------------

    def _batch_key_of(self, pending: PendingSolve) -> str | None:
        """Memoized :func:`repro.batch.batch_key` for one queued request.

        Keyed on the *effective* plan: a down-tiered request coalesces with
        runs that will actually execute the same way, not with its original
        tier.
        """
        memo = pending._batch_key
        if memo is _BATCH_KEY_UNSET:
            request = pending.request
            memo = pending._batch_key = batch_key(
                request.problem,
                executor=pending.effective_executor,
                options=request.options or self.framework.options,
                params=request.params,
                functional=pending.effective_functional,
            )
        return memo

    def _process_coalesced(self, leader: PendingSolve) -> None:
        """Coalescing entry point: drain compatible requests, then execute."""
        key = self._batch_key_of(leader)
        if key is None:
            self._process([leader])
            return
        # Register the in-flight key so admission can price a compatible
        # late arrival at its marginal (coalesced) cost, not full freight.
        if self.slo is not None:
            with self._lock:
                self._active_batch_keys[key] = (
                    self._active_batch_keys.get(key, 0) + 1
                )
        try:
            self._process([leader] + self._drain_compatible(leader, key))
        finally:
            if self.slo is not None:
                with self._lock:
                    count = self._active_batch_keys.get(key, 0) - 1
                    if count > 0:
                        self._active_batch_keys[key] = count
                    else:
                        self._active_batch_keys.pop(key, None)

    def _drain_compatible(self, leader: PendingSolve, key: str) -> list[PendingSolve]:
        """Pull batch-compatible requests off the queue for up to the window.

        Returns at most ``max_batch - 1`` requests whose batch key equals
        ``key``, removing them from the queue (incompatible entries are left
        untouched, in priority order). Waits on the queue condition until
        the coalescing window — capped by the leader's own deadline —
        closes, the batch fills, or the service closes.
        """
        end = time.monotonic() + self.coalesce_window
        if leader.deadline is not None:
            end = min(end, leader.deadline)
        members: list[PendingSolve] = []
        with self._not_empty:
            while True:
                keep = []
                took = False
                for entry in self._queue:
                    if (
                        len(members) + 1 < self.max_batch
                        and self._batch_key_of(entry[-1]) == key
                    ):
                        members.append(entry[-1])
                        self._note_dequeued(entry[-1])
                        took = True
                    else:
                        keep.append(entry)
                if took:
                    keep.sort()  # a sorted list is a valid heap
                    self._queue[:] = keep
                    get_metrics().gauge("serve.queue.depth").set(len(keep))
                if len(members) + 1 >= self.max_batch or self._closed:
                    break
                remaining = end - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(remaining)
        return members

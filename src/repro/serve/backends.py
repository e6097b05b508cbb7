"""Execution backends: where a claimed request actually runs.

:class:`~repro.serve.SolveService` owns admission, queueing, caching,
coalescing and retries; *execution* is delegated to a backend selected by
:attr:`ServiceConfig.backend <repro.serve.config.ServiceConfig.backend>`.
Both backends take :class:`~repro.batch.BatchItem` s: ``execute(item)`` runs
a lone request, ``execute_batch(items)`` a coalesced group, and both are
thin wrappers over one job path per backend.

* :class:`ThreadBackend` (``"thread"``) — the PR 2-6 behaviour: the solve
  runs on the calling service thread, inside this process. One GIL; best
  for cache-heavy or I/O-light traffic.
* :class:`ProcessPoolBackend` (``"process"``) — a pool of **spawned** worker
  processes, one per service dispatch thread. Each dispatch ships one job,
  a list of items (pre-pickled, so unpicklable problems are detected up
  front and fall back to an in-parent run), to a worker chosen by
  **consistent-hashing the request's batch key** — batch-compatible
  requests land on the same worker, whose :class:`~repro.kernels.KernelPlan`
  cache stays hot for exactly that shape. Result tables come back
  **zero-copy** through :mod:`repro.serve.shm`: the worker packs them into
  one shared-memory segment and replies with a small descriptor; the parent
  materializes read-only NumPy views over the same bytes.

Spawn safety (``"spawn"`` is the only sane start method here — the parent
is multi-threaded, so ``fork`` would clone held locks): each worker runs a
deterministic initializer from a picklable :class:`_WorkerSpec` that
re-registers every picklable custom executor and re-installs the active
fault plan (rules travel as plain tuples; each worker seeds its RNG with
its worker id, so rate-based chaos stays reproducible *and* decorrelated
across workers).

Cross-process control plane:

* **deadlines** travel as absolute ``time.monotonic()`` values —
  ``CLOCK_MONOTONIC`` is system-wide on every supported platform, so the
  worker enforces exactly the deadline the parent computed;
* **cancellation** uses a per-worker *cancel slab*: one shared-memory byte
  per in-flight item. The parent's dispatch thread polls the caller's
  :class:`~repro.cancel.CancelToken` and flips the slot; the worker's
  :class:`_SlabCancelToken` reads it at every wavefront boundary — the
  same cooperative abort latency as the thread backend;
* **worker death** is detected by the waiting dispatch thread, which
  respawns the worker *under the same ring position* (warm cache keys
  re-shard identically) and hands every item of the job a retryable
  :class:`~repro.errors.ExecutionError`, so the service's retry loop
  re-dispatches each request, coalesced or not.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, replace

import multiprocessing as mp
from multiprocessing import shared_memory

from ..batch import BatchItem, execute_items, run_item
from ..cancel import CancelToken
from ..core.framework import Framework
from ..errors import ExecutionError
from ..exec.base import SolveResult
from ..faults import FaultPlan, FaultRule, active_faults, install_faults
from ..obs import get_metrics
from .shm import export_result, materialize_result

__all__ = ["ThreadBackend", "ProcessPoolBackend", "make_backend"]

_POLL = 0.05  # parent-side cancel/death poll interval (s)
_SLAB_SLOTS = 128  # concurrent cancellable jobs per worker


def make_backend(config, framework: Framework):
    """Build the backend for ``config`` (see :mod:`repro.serve.config`)."""
    if config.backend == "process":
        return ProcessPoolBackend(
            framework,
            workers=config.workers,
            start_method=config.start_method,
        )
    return ThreadBackend(framework)


def _outcomes(items: list[BatchItem], framework: Framework) -> list:
    """Run one job: a lone item solo, a group as one stacked batch.

    One outcome per item — a :class:`SolveResult` or the exception that
    stopped it. A lone item counts in no ``batch.*`` metric.
    """
    if len(items) > 1:
        return execute_items(items, framework)
    try:
        return [run_item(items[0], framework)]
    except Exception as exc:  # noqa: BLE001 - outcome, not control flow
        return [exc]


def _only(outcomes: list) -> SolveResult:
    """The one outcome of a solo job, raised if it is an exception."""
    (outcome,) = outcomes
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


# -- thread backend ------------------------------------------------------------


class ThreadBackend:
    """Execute on the calling service thread, in-process (the default)."""

    kind = "thread"

    def __init__(self, framework: Framework) -> None:
        self.framework = framework

    def execute(self, item: BatchItem, affinity=None) -> SolveResult:
        return _only(_outcomes([item], self.framework))

    def execute_batch(self, items: list[BatchItem], affinity=None) -> list:
        return _outcomes(items, self.framework)

    def resize(self, target: int) -> None:  # dispatch threads ARE the pool
        pass

    def stats(self) -> dict:
        # No workers of its own: the service reports its dispatch threads.
        return {"kind": self.kind}

    def close(self) -> None:
        pass


# -- consistent-hash ring ------------------------------------------------------


class _HashRing:
    """Consistent hashing of affinity keys onto worker ids.

    Virtual nodes smooth the distribution; adding or removing one worker
    remaps only the keys in its arcs, so a resize keeps most per-worker
    plan caches warm.
    """

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._hashes: list[int] = []
        self._ids: list[int] = []

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big"
        )

    def rebuild(self, worker_ids) -> None:
        points = sorted(
            (self._hash(f"{wid}#{v}"), wid)
            for wid in worker_ids
            for v in range(self.vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._ids = [wid for _, wid in points]

    def lookup(self, key: str) -> int:
        if not self._ids:
            raise ExecutionError("hash ring is empty (backend closed?)")
        idx = bisect_right(self._hashes, self._hash(key)) % len(self._ids)
        return self._ids[idx]


# -- worker-process side -------------------------------------------------------


class _SlabCancelToken(CancelToken):
    """Worker-side token backed by one byte of the shared cancel slab."""

    __slots__ = ("_buf", "_slot")

    def __init__(self, buf, slot: int) -> None:
        super().__init__()
        self._buf = buf
        self._slot = slot

    def cancelled(self) -> bool:
        return super().cancelled() or self._buf[self._slot] != 0

    def wait(self, timeout: float | None = None) -> bool:
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.cancelled():
                return True
            step = 0.02
            if end is not None:
                left = end - time.monotonic()
                if left <= 0:
                    return self.cancelled()
                step = min(step, left)
            super().wait(step)


@dataclass
class _WorkerSpec:
    """Everything a spawned worker needs to rebuild the parent's world.

    Strictly picklable by construction: the platform and base options are
    plain dataclasses, executors travel as classes (pickled by reference —
    module-level classes only; unpicklable registrations are skipped at
    snapshot time), and the fault plan travels as rule tuples because
    :class:`~repro.faults.FaultPlan` holds a lock.
    """

    worker_id: int
    platform: object
    options: object  # ExecOptions with deadline/cancel_token stripped
    executors: dict  # name -> Executor subclass, beyond the builtins
    fault_rules: tuple  # (site, nth, rate, latency, message) per rule
    slab_name: str


def _snapshot_executors() -> dict:
    """Picklable view of the non-builtin executor registry (parent side)."""
    from ..exec.base import _EXECUTOR_REGISTRY, _load_builtin_executors

    _load_builtin_executors()
    builtins = dict(_EXECUTOR_REGISTRY)
    out = {}
    for name, cls in builtins.items():
        try:
            pickle.dumps(cls)
        except Exception:
            continue  # locally-defined class; solves using it fall back inline
        out[name] = cls
    return out


def _snapshot_faults() -> tuple:
    """The active fault plan as plain rule tuples (parent side)."""
    plan = active_faults()
    if plan is None:
        return ()
    return tuple(
        (r.site, r.nth, r.rate, r.latency, r.message) for r in plan.rules
    )


def _worker_init(spec: _WorkerSpec) -> Framework:
    """Spawn-safe initializer: registry, faults, framework (worker side)."""
    from ..exec.base import register_executor

    for name, cls in spec.executors.items():
        register_executor(name, cls, replace=True)
    if spec.fault_rules:
        rules = [
            FaultRule(site=s, nth=n, rate=r, latency=lat, message=m)
            for s, n, r, lat, m in spec.fault_rules
        ]
        # Seed by worker id: each worker's rate-based draws are
        # deterministic, and workers do not fire in lockstep.
        install_faults(FaultPlan(rules, seed=spec.worker_id))
    return Framework(spec.platform, spec.options)


def _picklable_exc(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecutionError(f"{type(exc).__name__}: {exc}")


def _worker_main(spec: _WorkerSpec, inbox, outbox) -> None:
    """One worker process: init once, then drain jobs until the sentinel.

    A job is ``(ticket, items, slots)``: the :class:`BatchItem` list,
    cancel tokens stripped, plus each item's cancel-slab slot (or
    ``None``); the reply packs one outcome per item.

    ``outbox`` is this worker's *private* reply pipe (the write end of a
    one-way :func:`multiprocessing.Pipe`). Single writer per pipe is the
    crash-safety invariant: a SIGKILLed worker can never die holding a
    lock shared with its siblings' replies — the parent just sees EOF on
    this worker's pipe and every other worker keeps flowing.
    """
    framework = _worker_init(spec)
    slab = shared_memory.SharedMemory(name=spec.slab_name)
    buf = slab.buf
    jobs = failures = batched = 0
    try:
        while True:
            payload = inbox.get()
            if payload is None:
                return
            ticket, items, slots = pickle.loads(payload)
            try:
                for item, slot in zip(items, slots):
                    if slot is not None:
                        item.cancel_token = _SlabCancelToken(buf, slot)
                packed = [
                    ("ok",) + export_result(out)
                    if isinstance(out, SolveResult)
                    else ("err", _picklable_exc(out))
                    for out in _outcomes(items, framework)
                ]
                reply = (ticket, "ok", packed)
                jobs += 1
                if len(items) > 1:
                    batched += len(items)
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                failures += 1
                reply = (ticket, "err", _picklable_exc(exc))
            health = {
                "worker_id": spec.worker_id,
                "pid": os.getpid(),
                "jobs": jobs,
                "failures": failures,
                "batched": batched,
                "metrics": get_metrics().snapshot(),
            }
            outbox.send((reply, health))
    finally:
        del buf
        slab.close()
        try:
            outbox.close()
        except OSError:  # pragma: no cover - parent already gone
            pass


# -- parent-process side -------------------------------------------------------


class _Inflight:
    __slots__ = ("event", "status", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: str | None = None
        self.payload = None


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("id", "process", "inbox", "slab", "buf", "free", "pending",
                 "health")

    def __init__(self, wid, process, inbox, slab) -> None:
        self.id = wid
        self.process = process
        self.inbox = inbox
        self.slab = slab
        self.buf = slab.buf
        self.free = list(range(_SLAB_SLOTS))
        self.pending = 0
        self.health: dict = {"pid": process.pid, "jobs": 0, "failures": 0}


class ProcessPoolBackend:
    """Spawned worker-process pool with shared-memory result transport."""

    kind = "process"

    def __init__(
        self,
        framework: Framework,
        *,
        workers: int = 4,
        start_method: str = "spawn",
    ) -> None:
        self.framework = framework
        self._ctx = mp.get_context(start_method)
        self._lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._retired: list[_Worker] = []
        self._next_id = 0
        # One reply pipe (read end) per live worker. A shared reply Queue
        # would be a crash hazard: a SIGKILLed worker can die holding the
        # queue's cross-process write lock, wedging every sibling's
        # replies forever. Single-writer pipes turn worker death into a
        # clean EOF on exactly one connection.
        self._conns: set = set()
        self._inflight: dict[int, _Inflight] = {}
        self._tickets = itertools.count(1)
        self._ring = _HashRing()
        self._closed = False
        self._restarts = 0
        self._inline = 0
        base = framework.options
        self._spec_options = (
            None if base is None
            else base.replace(deadline=None, cancel_token=None)
        )
        with self._lock:
            for _ in range(workers):
                self._start_worker_locked()
            self._ring.rebuild(self._workers)
        self._reader = threading.Thread(
            target=self._reply_loop, name="solve-backend-replies", daemon=True,
        )
        self._reader.start()

    # -- pool plumbing ---------------------------------------------------------

    def _start_worker_locked(self, wid: int | None = None, slab=None) -> None:
        if wid is None:
            wid = self._next_id
            self._next_id += 1
        if slab is None:
            slab = shared_memory.SharedMemory(create=True, size=_SLAB_SLOTS)
        slab.buf[:] = bytes(_SLAB_SLOTS)
        spec = _WorkerSpec(
            worker_id=wid,
            platform=self.framework.platform,
            options=self._spec_options,
            executors=_snapshot_executors(),
            fault_rules=_snapshot_faults(),
            slab_name=slab.name,
        )
        inbox = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, inbox, writer),
            name=f"solve-backend-{wid}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: the worker now holds
        # the only writer, so its death delivers EOF to ``reader``.
        writer.close()
        self._conns.add(reader)
        self._workers[wid] = _Worker(wid, process, inbox, slab)

    def _reply_loop(self) -> None:
        from multiprocessing.connection import wait as _conn_wait

        while True:
            with self._lock:
                conns = list(self._conns)
            if not conns:
                if self._closed and not self._inflight:
                    return
                time.sleep(0.05)
                continue
            try:
                ready = _conn_wait(conns, timeout=0.2)
            except (OSError, ValueError):  # a pipe closed mid-wait
                continue
            if not ready and self._closed and not self._inflight:
                return
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker exit — clean or SIGKILL — shows up as EOF on
                    # its private pipe. The waiting dispatch thread owns
                    # the respawn (liveness check in ``_await``); here we
                    # just retire the drained connection.
                    with self._lock:
                        self._conns.discard(conn)
                    try:
                        conn.close()
                    except OSError:
                        pass
                    continue
                (ticket, status, payload), health = msg
                with self._lock:
                    worker = self._workers.get(health["worker_id"])
                    if worker is not None:
                        worker.health = health
                    fl = self._inflight.get(ticket)
                if fl is not None:
                    fl.status = status
                    fl.payload = payload
                    fl.event.set()

    def _pick(self, affinity: str | None) -> _Worker:
        with self._lock:
            if self._closed or not self._workers:
                raise ExecutionError("process backend is closed")
            if affinity is not None:
                worker = self._workers.get(self._ring.lookup(affinity))
                if worker is None:  # ring mid-rebuild; fall through
                    worker = min(
                        self._workers.values(), key=lambda w: w.pending
                    )
            else:
                worker = min(self._workers.values(), key=lambda w: w.pending)
            worker.pending += 1
            return worker

    def _alloc_slot(self, worker: _Worker) -> int | None:
        with self._lock:
            if not worker.free:
                return None
            slot = worker.free.pop()
        worker.buf[slot] = 0
        return slot

    def _release(self, worker: _Worker, slots) -> None:
        """Return a finished job's slots and pending count to ``worker``."""
        with self._lock:
            worker.pending -= 1
            for slot in slots:
                if slot is not None:
                    worker.free.append(slot)

    def _revive(self, worker: _Worker) -> None:
        """Respawn a dead worker in place (same ring id, same slab)."""
        with self._lock:
            if self._closed:
                return
            current = self._workers.get(worker.id)
            if current is not worker or worker.process.is_alive():
                return  # someone else already revived it
            self._restarts += 1
            get_metrics().counter("serve.backend.restarts").inc()
            try:
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self._start_worker_locked(worker.id, slab=worker.slab)

    def _await(self, worker: _Worker, ticket: int, watch) -> tuple:
        """Wait for a reply, propagating cancels and detecting death.

        ``watch`` is ``[(token, slot), ...]`` — cancel tokens mirrored into
        the worker's slab while the job runs.
        """
        fl = self._inflight[ticket]
        while not fl.event.wait(_POLL):
            for token, slot in watch:
                if (
                    token is not None and slot is not None
                    and token.cancelled() and worker.buf[slot] == 0
                ):
                    worker.buf[slot] = 1
            if not worker.process.is_alive():
                # Give the reply a final chance to drain (the worker may
                # have replied, then exited) before declaring death.
                if fl.event.wait(0.2):
                    break
                self._revive(worker)
                raise ExecutionError(
                    f"solve worker {worker.id} "
                    f"(pid {worker.health.get('pid')}) died mid-job; "
                    "respawned — retry"
                )
        return fl.status, fl.payload

    def _run(self, items: list[BatchItem], affinity) -> list:
        """Ship ``items`` as one job; one outcome per item, in order.

        Each item travels with its control plane split off: the deadline
        stays on the item (an absolute monotonic time), the cancel token
        becomes a slab slot the worker polls. A job that cannot pickle runs
        inline on this thread instead. A job-level failure (worker death,
        a closed backend) becomes every item's outcome, so the service's
        retry path sees it.
        """
        try:
            worker = self._pick(affinity if affinity is not None
                                else items[0].key)
        except ExecutionError as exc:
            return [exc] * len(items)
        slots = [self._alloc_slot(worker) for _ in items]
        shipped = [
            replace(
                item, cancel_token=None,
                options=None if item.options is None
                else item.options.replace(deadline=None, cancel_token=None),
            )
            for item in items
        ]
        ticket = next(self._tickets)
        try:
            payload = pickle.dumps(
                (ticket, shipped, slots), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            self._release(worker, slots)
            self._inline += 1
            get_metrics().counter("serve.backend.inline").inc()
            return _outcomes(items, self.framework)
        try:
            with self._lock:
                self._inflight[ticket] = _Inflight()
            get_metrics().counter("serve.backend.dispatched").inc()
            worker.inbox.put(payload)
            status, body = self._await(
                worker, ticket,
                [(item.cancel_token, slot) for item, slot in zip(items, slots)],
            )
        except Exception as exc:  # noqa: BLE001 - every item's outcome
            return [exc] * len(items)
        finally:
            with self._lock:
                self._inflight.pop(ticket, None)
            self._release(worker, slots)
        if status == "err":
            # A whole-job failure (decode, export): every item gets it.
            return [body] * len(items)
        return [
            materialize_result(entry[1], entry[2]) if entry[0] == "ok"
            else entry[1]
            for entry in body
        ]

    # -- the backend interface -------------------------------------------------

    def execute(self, item: BatchItem, affinity=None) -> SolveResult:
        """Run one request in a worker; ``affinity`` defaults to its key."""
        return _only(self._run([item], affinity))

    def execute_batch(self, items: list[BatchItem], affinity=None) -> list:
        """Run a coalesced group as one job in one worker."""
        return self._run(items, affinity)

    # -- lifecycle / introspection ---------------------------------------------

    def resize(self, target: int) -> None:
        """Grow or shrink the pool to ``target`` processes.

        Shrinking retires the highest worker ids (a sentinel after their
        queued jobs — nothing in flight is dropped); the consistent-hash
        ring keeps every surviving worker's keys, so plan caches stay warm.
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        with self._lock:
            if self._closed:
                return
            current = len(self._workers)
            if target > current:
                for _ in range(target - current):
                    self._start_worker_locked()
            elif target < current:
                for wid in sorted(self._workers)[target - current:]:
                    worker = self._workers.pop(wid)
                    self._retired.append(worker)
                    try:
                        worker.inbox.put(None)
                    except Exception:  # noqa: BLE001 - already dead
                        pass
            self._ring.rebuild(self._workers)

    def stats(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "workers": len(self._workers),
                "pids": {
                    wid: w.process.pid for wid, w in self._workers.items()
                },
                "restarts": self._restarts,
                "inline_fallbacks": self._inline,
                "per_worker": {
                    wid: dict(w.health) for wid, w in self._workers.items()
                },
            }

    def close(self) -> None:
        """Stop every worker; join (then terminate) and unlink all slabs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values()) + self._retired
            self._workers.clear()
            self._retired = []
            self._ring.rebuild(())
        for worker in workers:
            try:
                worker.inbox.put(None)
            except Exception:  # noqa: BLE001 - feeder already closed
                pass
        for worker in workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=2)
            try:
                worker.process.close()
            except Exception:  # noqa: BLE001
                pass
            try:
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
            except Exception:  # noqa: BLE001
                pass
            worker.buf = None
            try:
                worker.slab.close()
                worker.slab.unlink()
            except (FileNotFoundError, BufferError, OSError):
                pass
        self._reader.join(timeout=5)
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

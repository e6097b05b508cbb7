"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` replaces each layer's public entry point with a
timing wrapper, at the module attribute its callers look it up through
(``evaluate_span`` is imported by name into every executor module, so each
of those modules is patched). Spans are kept in memory as tuples and
written out once the run ends. Nothing in ``src/repro`` is edited; the
wrappers are removed again when the recorder's ``with`` block exits.

Worker processes of the process backend import the package afresh and are
not wrapped: their numbers come from the metric snapshots they send back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time

from measure import self_times

#: ``(span name, module, attribute path)``: every wrapped layer boundary.
#: An attribute path with a dot names a method on a class of that module.
LAYERS = (
    ("serve.request.sign", "repro.serve.request", "SolveRequest.__post_init__"),
    ("slo.price", "repro.slo.pricing", "Pricer.units"),
    ("slo.admit", "repro.slo.admission", "AdmissionController.decide"),
    ("batch.key", "repro.serve.service", "batch_key"),
    ("serve.cache.key", "repro.serve.service", "request_key"),
    ("serve.cache.get", "repro.serve.cache", "ResultCache.get"),
    ("serve.cache.put", "repro.serve.cache", "ResultCache.put"),
    ("serve.cache.get", "repro.serve.shm", "SegmentIndex.get"),
    ("serve.cache.put", "repro.serve.shm", "SegmentIndex.put"),
    ("delta.patch", "repro.serve.service", "delta_patch"),
    ("serve.backends.execute", "repro.serve.backends", "ThreadBackend.execute"),
    ("serve.backends.execute", "repro.serve.backends",
     "ProcessPoolBackend.execute"),
    ("batch.exec", "repro.serve.backends", "ThreadBackend.execute_batch"),
    ("batch.exec", "repro.serve.backends", "ProcessPoolBackend.execute_batch"),
    ("serve.shm.materialize", "repro.serve.backends", "materialize_result"),
    ("serve.shm.materialize", "repro.serve.shm", "materialize_result"),
    ("exec.solve", "repro.exec.base", "Executor.solve"),
    ("sim.estimate", "repro.exec.base", "Executor.estimate"),
    ("sim.engine", "repro.sim.engine", "Engine.run"),
    ("scan.solve", "repro.scan.route", "scan_solve"),
    ("dataflow.run", "repro.dataflow", "run_dataflow"),
    ("kernels.plan", "repro.exec.base", "plan_for"),
    ("kernels.plan", "repro.exec.layout_exec", "plan_for"),
    ("kernels.plan", "repro.batch.executor", "plan_for"),
    ("exec.span", "repro.exec.cpu_exec", "evaluate_span"),
    ("exec.span", "repro.exec.gpu_exec", "evaluate_span"),
    ("exec.span", "repro.exec.hetero", "evaluate_span"),
    ("exec.span", "repro.exec.blocked", "evaluate_span"),
    ("exec.span", "repro.delta.patch", "evaluate_span"),
    ("cell", "repro.core.cellfunc", "CellFunction.__call__"),
)

#: Layers whose spans open a request: the wrapper tags the thread with the
#: request's id so later spans on that worker thread join the request.
_REQUEST_OPENERS = {"serve.cache.key"}


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it.

    A span is ``(span_id, parent_id, name, start_ns, end_ns, request_id,
    thread_id, tag)``; ``parent_id`` is the innermost open span on the same
    thread (0 for a root). ``tag`` carries the executor name on
    ``exec.solve`` spans and ``None`` elsewhere.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_ids: dict[int, int] = {}  # id(SolveRequest) -> rid
        self.shm_bytes = 0
        self.cache_bytes: dict[str, int] = {}  # cache key -> bytes held
        self.delta_cones: list[float] = []
        self.batch_sizes: list[int] = []
        self.dataflow: list[tuple[float, float]] = []  # (occupancy, wait s)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Forget spans and observations so far (the window opens).

        Cache puts are kept: the bytes a cache holds at the end count
        entries put before the window too.
        """
        self.spans.clear()
        self.shm_bytes = 0
        self.delta_cones.clear()
        self.batch_sizes.clear()
        self.dataflow.clear()

    # -- request ids -------------------------------------------------------

    def set_request(self, rid: int | None) -> None:
        """Tag spans opened on this thread with ``rid`` from now on."""
        self._local.rid = rid

    def bind(self, request, rid: int) -> None:
        """Remember which request id a ``SolveRequest`` object carries."""
        self.request_ids[id(request)] = rid

    def add_span(self, name: str, start_ns: int, end_ns: int, rid) -> None:
        """Record a span the benchmark measured itself (queue wait)."""
        self.spans.append(
            (next(self._ids), 0, name, start_ns, end_ns, rid, 0, None)
        )

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        opener = name in _REQUEST_OPENERS
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if opener:
                local.rid = self.request_ids.get(id(args[0]))
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tag = (
                    getattr(args[0], "name", None)
                    if name == "exec.solve" else None
                )
                spans.append((sid, parent, name, start, end,
                              getattr(local, "rid", None),
                              threading.get_ident(), tag))
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for name, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds."""
        selfs = self_times(
            (sid, parent, start, end)
            for sid, parent, _, start, end, *_ in self.spans
        )
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end, *_rest in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += selfs[sid] / 1e6
        return out

    def solve_ms_by_executor(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for _, _, name, start, end, _, _, tag in self.spans:
            if name == "exec.solve":
                out.setdefault(tag, []).append((end - start) / 1e6)
        return out

    def intervals_by_request(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for _, _, _, start, end, rid, *_ in self.spans:
            if rid is not None:
                out.setdefault(rid, []).append((start, end))
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rid, tid, tag in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "request": rid,
                     "thread": tid, "executor": tag},
                    separators=(",", ":"),
                ))
                fh.write("\n")


# -- argument observers: counts the wrappers read off the calls they wrap ---


def _array_bytes(result) -> int:
    table = getattr(result, "table", None)
    aux = getattr(result, "aux", None) or {}
    return (0 if table is None else table.nbytes) + sum(
        a.nbytes for a in aux.values()
    )


def _on_cache_put(rec: SpanRecorder, args, kwargs, out) -> None:
    key, result = args[1], args[2]
    shm = result.stats.get("shm")
    rec.cache_bytes[key] = shm["nbytes"] if shm else _array_bytes(result)


def _on_materialize(rec: SpanRecorder, args, kwargs, out) -> None:
    descriptor = args[1] if len(args) > 1 else kwargs.get("descriptor")
    if descriptor is not None:
        rec.shm_bytes += descriptor["nbytes"]


def _on_delta(rec: SpanRecorder, args, kwargs, out) -> None:
    rec.delta_cones.append(float(out.stats.get("delta_cone_fraction", 0.0)))


def _on_batch(rec: SpanRecorder, args, kwargs, out) -> None:
    rec.batch_sizes.append(len(args[1]))


def _on_solve(rec: SpanRecorder, args, kwargs, out) -> None:
    stats = out.stats
    if "worker_occupancy" in stats:
        rec.dataflow.append(
            (float(stats["worker_occupancy"]), float(stats["tile_wait_s"]))
        )


_OBSERVERS = {
    "serve.cache.put": _on_cache_put,
    "serve.shm.materialize": _on_materialize,
    "delta.patch": _on_delta,
    "batch.exec": _on_batch,
    "exec.solve": _on_solve,
}

"""Turn measured windows into the benchmark's metrics and printed lines.

``end_to_end`` serves untraced runs, ``per_layer`` traced ones. Both
return ``{"correct", "attempted", "failed", "metrics", "lines"}``; ``lines``
is the human-readable report printed above the final JSON line.
"""

from __future__ import annotations

import statistics
import time

import measure
from tracing import LAYERS

#: ``(name, unit)`` of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_ops_per_s", "1/s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
)

#: A ``serve-open`` run is invalid when the generator's median lateness
#: exceeds this many milliseconds: arrivals no longer follow the schedule.
MAX_LATENESS_P50_MS = 10.0

#: Layer span names, including the queue wait the benchmark times itself.
SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in LAYERS] + ["serve.queue.wait"]
))
EXECUTORS = ("cpu", "hetero", "cpu-blocked")

#: ``(name, unit)`` of every per-layer metric, in print order.
PER_LAYER = (
    ("serve.request.sign_ms", "ms"),
    ("slo.price_ms", "ms"),
    ("slo.admit_ms", "ms"),
    ("slo.shed_frac", "fraction"),
    ("batch.key_ms", "ms"),
    ("serve.cache.key_ms", "ms"),
    ("serve.cache.get_ms", "ms"),
    ("serve.cache.put_ms", "ms"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.cache.bytes", "B"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_tail_ms", "ms"),
    ("serve.queue.depth_end", "count"),
    ("gen.lateness_p50_ms", "ms"),
    ("gen.lateness_max_ms", "ms"),
    ("delta.patch_ms", "ms"),
    ("delta.hit_ratio", "fraction"),
    ("delta.cone_frac", "fraction"),
    ("batch.exec_ms", "ms"),
    ("batch.members_mean", "count"),
    *((f"exec.solve_ms.{ex}", "ms") for ex in EXECUTORS),
    ("exec.span_ms", "ms"),
    ("exec.spans", "count/op"),
    ("cell.ms", "ms"),
    ("cell.calls", "count/op"),
    ("sim.estimate_ms", "ms"),
    ("sim.estimate_share", "fraction"),
    ("sim.engine_ms", "ms"),
    ("kernels.plan_ms", "ms"),
    ("kernels.plan_hit_ratio", "fraction"),
    ("kernels.fast_span_ratio", "fraction"),
    ("scan.solve_ms", "ms"),
    ("scan.hit_ratio", "fraction"),
    ("dataflow.occupancy", "fraction"),
    ("dataflow.wait_ms", "ms"),
    ("serve.backends.execute_ms", "ms"),
    ("serve.backends.ipc_ms", "ms"),
    ("serve.shm.materialize_ms", "ms"),
    ("serve.shm.bytes", "B/op"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.largest_self_frac", "fraction"),
    *((f"self_frac.{name}", "fraction") for name in SPAN_NAMES),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


def _completed(ops):
    return [op for op in ops if op.done is not None and op.error is None]


def _latencies_ms(ops) -> list[float]:
    return [(op.done - op.due) * 1e3 for op in ops]


# -- end to end ----------------------------------------------------------------


def end_to_end(window, check: dict, leaks: list[str], rss_mb: float) -> dict:
    """Every end-to-end metric of one untraced window."""
    counted = window.counted if window.counted is not None else window.ops
    done = sorted(_completed(counted), key=lambda op: op.done)
    if window.rate_span is not None:
        span = window.rate_span
    else:
        span = max((op.done for op in done), default=window.end) - window.start
    lat = _latencies_ms(done)
    tail, pct, n, band = measure.band_tail(lat)
    all_done = _completed(window.ops)
    within = sum(1 for v in _latencies_ms(all_done) if v <= window.limit_ms)
    attempted = len(window.ops)
    wrong = len(check["wrong"])
    errors = attempted - len(all_done)
    values = {
        "setup_s": measure.median(window.setup_s),
        "ops_per_s": _ratio(len(done), span),
        "cells_per_s": _ratio(
            sum(op.problem.total_computed_cells for op in done), span
        ),
        "latency_p50_ms": measure.median(lat),
        "latency_tail_ms": tail,
        "goodput_ops_per_s": _ratio(
            sum(1 for v in lat if v <= window.limit_ms), span
        ),
        "ok_frac": _ratio(max(0, within - wrong), attempted),
        "peak_rss_mb": rss_mb,
    }
    lines = [f"workload {window.workload}: {attempted} ops attempted, "
             f"{len(done)} counted over {span:.3f} s"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<20s} {values[name]:14.4f} {unit}")
    lines.append(f"  latency_tail_ms is the mean of the {band} samples up to "
                 f"p{pct:.2f}, the highest percentile with "
                 f"{measure.TAIL_MARGIN} samples beyond it (from p90, or from "
                 f"the tail itself when it lies below p90); {n} samples")
    lines.append(f"  fail_frac {1.0 - values['ok_frac']:.4f} "
                 f"(errors {errors}, wrong {wrong}, over the "
                 f"{window.limit_ms:.0f} ms limit {len(all_done) - within})")
    lines.append("  setup runs " + ", ".join(f"{s:.3f}" for s in window.setup_s)
                 + " s")
    valid, gen_lines = _generator(window)
    lines += gen_lines + _check_lines(check, leaks)
    return {
        "correct": bool(valid and attempted and not wrong and not leaks
                        and check["checked"]),
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END},
        "lines": lines,
    }


def _generator(window) -> tuple[bool, list[str]]:
    """Open-loop honesty: lateness and backlog; invalid when behind."""
    lateness = window.info.get("lateness_s")
    if lateness is None:
        return True, []
    p50 = measure.median(lateness) * 1e3
    worst = max(lateness, default=0.0) * 1e3
    valid = p50 <= MAX_LATENESS_P50_MS
    lines = [f"  generator lateness p50 {p50:.3f} ms, max {worst:.3f} ms; "
             f"queue depth at window end {window.info['queue_depth_end']}"]
    if not valid:
        lines.append(f"  INVALID: the generator fell behind its schedule "
                     f"(p50 lateness over {MAX_LATENESS_P50_MS} ms)")
    return valid, lines


def _check_lines(check: dict, leaks: list[str]) -> list[str]:
    offered = ", ".join(f"{k}={v}" for k, v in check["offered"].items())
    lines = [f"  checked {check['checked']} sampled results against oracles "
             f"in {check['oracle_s']:.2f} s; wrong: "
             f"{check['wrong'] or 'none'}",
             f"  offered per category: {offered}",
             f"  leaks after close: {', '.join(leaks) if leaks else 'none'}"]
    if not check["checked"]:
        lines.append("  FAILED: no result was checked")
    return lines


# -- per layer -----------------------------------------------------------------


def probe(pairs) -> list[tuple]:
    """``(instance, executor, solve s, estimate s)`` for each pair.

    Each instance is solved once untimed first, so plan compilation in
    this process does not count.
    """
    from repro import Framework

    framework = Framework()
    out = []
    for instance, problem, executor in pairs:
        framework.solve(problem, executor=executor)
        t0 = time.perf_counter()
        framework.solve(problem, executor=executor)
        t1 = time.perf_counter()
        framework.estimate(problem, executor=executor)
        t2 = time.perf_counter()
        out.append((instance, executor, t1 - t0, t2 - t1))
    return out


def _window_spans(recorder, window):
    lo, hi = int(window.start * 1e9), int(window.end * 1e9)
    return [s for s in recorder.spans if s[3] >= lo and s[4] <= hi]


def _queue_wait_spans(recorder, window) -> None:
    """Add one ``serve.queue.wait`` span per request: submit to pickup."""
    submitted = window.layer.get("submitted_ns")
    if not submitted:
        return
    pickup: dict[int, int] = {}
    for _, _, name, start, _, rid, _, _ in recorder.spans:
        if name == "serve.cache.key" and rid in submitted:
            pickup[rid] = min(start, pickup.get(rid, start))
    for rid, start in pickup.items():
        if start > submitted[rid]:
            recorder.add_span("serve.queue.wait", submitted[rid], start, rid)


def per_layer(plain, traced, recorder, probed, check, leaks) -> dict:
    """Every per-layer metric of one traced window, plus its report."""
    _queue_wait_spans(recorder, traced)
    spans = _window_spans(recorder, traced)
    recorder.spans = spans
    layers = recorder.by_layer()
    done = _completed(traced.ops)
    n_ops = len(done)
    stats = traced.layer.get("service_stats") or {}
    snapshot = traced.layer.get("metrics", {})
    notes = []

    def mean_ms(name):
        row = layers.get(name)
        return _ratio(row["total_ms"], row["calls"]) if row else 0.0

    def calls(name):
        row = layers.get(name)
        return row["calls"] if row else 0

    m: dict[str, float] = {
        "serve.request.sign_ms": mean_ms("serve.request.sign"),
        "slo.price_ms": mean_ms("slo.price"),
        "slo.admit_ms": mean_ms("slo.admit"),
        "batch.key_ms": mean_ms("batch.key"),
        "serve.cache.key_ms": mean_ms("serve.cache.key"),
        "serve.cache.get_ms": mean_ms("serve.cache.get"),
        "serve.cache.put_ms": mean_ms("serve.cache.put"),
        "delta.patch_ms": mean_ms("delta.patch"),
        "batch.exec_ms": mean_ms("batch.exec"),
        "exec.span_ms": mean_ms("exec.span"),
        "exec.spans": _ratio(calls("exec.span"), n_ops),
        "cell.ms": mean_ms("cell"),
        "cell.calls": _ratio(calls("cell"), n_ops),
        "sim.engine_ms": mean_ms("sim.engine"),
        "kernels.plan_ms": mean_ms("kernels.plan"),
        "scan.solve_ms": mean_ms("scan.solve"),
        "serve.backends.execute_ms": mean_ms("serve.backends.execute"),
        "serve.shm.materialize_ms": mean_ms("serve.shm.materialize"),
        "serve.shm.bytes": _ratio(recorder.shm_bytes, n_ops),
        "serve.cache.bytes": traced.layer.get("cache_bytes", 0),
        "batch.members_mean": statistics.fmean(recorder.batch_sizes)
        if recorder.batch_sizes else 0.0,
        "delta.cone_frac": statistics.fmean(recorder.delta_cones)
        if recorder.delta_cones else 0.0,
    }
    by_executor = recorder.solve_ms_by_executor()
    for ex in EXECUTORS:
        m[f"exec.solve_ms.{ex}"] = (
            statistics.fmean(by_executor[ex]) if ex in by_executor else 0.0
        )

    # Caches and admission: the service's own counters over the window.
    opened = traced.layer.get("stats_at_open") or {}

    def grew(section, key):
        end = (stats.get(section) or {}).get(key, 0)
        return end - (opened.get(section) or {}).get(key, 0)

    hits = grew("cache", "hits")
    m["serve.cache.hit_ratio"] = _ratio(hits, hits + grew("cache", "misses"))
    m["delta.hit_ratio"] = _ratio(grew("cache", "delta_hits"),
                                  grew("cache", "delta_candidates"))
    shed = grew("slo", "shed")
    m["slo.shed_frac"] = _ratio(shed, shed + grew("slo", "admitted"))
    wait = traced.layer.get("queue_wait")
    if wait is not None and wait.count:
        m["serve.queue.wait_p50_ms"] = wait.percentile(50)
        q = max(0.0, 100.0 * (1.0 - measure.TAIL_MARGIN / wait.count))
        m["serve.queue.wait_tail_ms"] = wait.percentile(q)
        notes.append(f"queue wait from the serve.queue_wait_ms histogram "
                     f"(bucket bounds), tail at p{q:.2f} of {wait.count}")
    else:
        m["serve.queue.wait_p50_ms"] = m["serve.queue.wait_tail_ms"] = 0.0
    m["serve.queue.depth_end"] = traced.info.get("queue_depth_end", 0)
    lateness = traced.info.get("lateness_s") or [0.0]
    m["gen.lateness_p50_ms"] = measure.median(lateness) * 1e3
    m["gen.lateness_max_ms"] = max(lateness) * 1e3

    # Kernel and scan tiers: counters of this process, or, on the process
    # backend, of the workers' metric snapshots, less those at window open.
    workers = (stats.get("backend") or {}).get("per_worker")
    if workers:
        snapshot = _worker_counters(stats)
        for name, value in _worker_counters(opened).items():
            if name in snapshot:
                snapshot[name]["value"] -= value["value"]
        notes.append("kernel and scan counters from the worker processes' "
                     "metric snapshots; calls inside workers are not wrapped")
    plan_hits = _counter(snapshot, "kernels.plan.hits")
    m["kernels.plan_hit_ratio"] = _ratio(
        plan_hits, plan_hits + _counter(snapshot, "kernels.plan.misses")
    )
    fast = _counter(snapshot, "kernels.span.fast")
    m["kernels.fast_span_ratio"] = _ratio(
        fast, fast + _counter(snapshot, "kernels.span.generic")
    )
    solved = _counter(snapshot, "scan.solved")
    m["scan.hit_ratio"] = _ratio(
        solved, solved + _counter(snapshot, "scan.declined")
        + _counter(snapshot, "scan.degraded")
    )
    if recorder.dataflow:
        m["dataflow.occupancy"] = statistics.fmean(
            o for o, _ in recorder.dataflow)
        m["dataflow.wait_ms"] = statistics.fmean(
            w for _, w in recorder.dataflow) * 1e3
    else:
        m["dataflow.occupancy"] = m["dataflow.wait_ms"] = 0.0

    # The paired probe: estimate against solve on the same instances.
    solve_s = sum(p[2] for p in probed)
    m["sim.estimate_ms"] = _ratio(sum(p[3] for p in probed), len(probed)) * 1e3
    m["sim.estimate_share"] = _ratio(sum(p[3] for p in probed), solve_s)
    m["serve.backends.ipc_ms"] = 0.0
    if workers:
        m["serve.backends.ipc_ms"] = _ipc_ms(traced, spans, probed)
        for ex in EXECUTORS:
            walls = [p[2] * 1e3 for p in probed if p[1] == ex]
            m[f"exec.solve_ms.{ex}"] = statistics.fmean(walls) if walls else 0.0
        notes.append("exec.solve_ms and serve.backends.ipc_ms on the process "
                     "backend come from in-parent solves of the same "
                     "instances after the window; workers report no "
                     "execute time")

    # Coverage: self time per layer, unattributed request time, overhead.
    total_ms = sum(_latencies_ms(done)) or 1.0
    selfs = {name: row["self_ms"] for name, row in layers.items()}
    for name in SPAN_NAMES:
        m[f"self_frac.{name}"] = selfs.get(name, 0.0) / total_ms
    largest = max(selfs, key=selfs.get) if selfs else "none"
    m["trace.largest_self_frac"] = selfs.get(largest, 0.0) / total_ms
    m["trace.unattributed_frac"] = _unattributed(recorder, done)
    m["trace.overhead_frac"] = _overhead(plain, traced)

    lines = [f"workload {traced.workload} traced: {n_ops} ops, "
             f"{len(spans)} spans"]
    for name, unit in PER_LAYER:
        lines.append(f"  {name:<32s} {m[name]:14.4f} {unit}")
    lines.append(f"  largest layer by self time: {largest}")
    lines.append("  self time by layer (ms total, calls):")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(f"    {name:<28s} {row['self_ms']:12.2f} "
                     f"{row['calls']:9d}")
    lines += [f"  note: {note}" for note in notes]
    _, gen_lines = _generator(traced)
    lines += gen_lines + _check_lines(check, leaks)
    wrong = len(check["wrong"])
    errors = len(traced.ops) - n_ops
    return {
        "correct": bool(not wrong and not leaks and check["checked"]),
        "attempted": len(traced.ops),
        "failed": errors + wrong,
        "metrics": {name: {"value": float(m[name]), "unit": unit}
                    for name, unit in PER_LAYER},
        "lines": lines,
    }


def _worker_counters(stats: dict) -> dict:
    """Counters summed over the process backend's workers."""
    merged: dict[str, dict] = {}
    workers = (stats.get("backend") or {}).get("per_worker") or {}
    for health in workers.values():
        for name, entry in (health.get("metrics") or {}).items():
            if entry.get("type") == "counter":
                merged.setdefault(name, {"value": 0})
                merged[name]["value"] += entry["value"]
    return merged


def _unattributed(recorder, done) -> float:
    """Share of request time no span of that request covers."""
    by_rid = recorder.intervals_by_request()
    total = covered = 0.0
    for op in done:
        start, end = int(op.due * 1e9), int(op.done * 1e9)
        total += end - start
        covered += measure.union_length(
            measure.clipped(by_rid.get(op.rid, ()), start, end)
        )
    return _ratio(total - covered, total)


def _overhead(plain, traced) -> float:
    """Traced over untraced latency on the operations both windows ran."""
    before = {op.rid: op for op in _completed(plain.ops)}
    pairs = [(before[op.rid], op) for op in _completed(traced.ops)
             if op.rid in before]
    untraced = sum(a.done - a.due for a, _ in pairs)
    with_spans = sum(b.done - b.due for _, b in pairs)
    return _ratio(with_spans, untraced) - 1.0 if untraced else 0.0


def _ipc_ms(window, spans, probed) -> float:
    """Parent-side execute time minus an in-parent solve of each instance."""
    instance_of = {op.rid: op.instance for op in window.ops}
    execute: dict = {}
    for _, _, name, start, end, rid, _, _ in spans:
        if name == "serve.backends.execute" and rid in instance_of:
            execute.setdefault(instance_of[rid], []).append((end - start) / 1e6)
    diffs = [min(execute[inst]) - solve_s * 1e3
             for inst, _, solve_s, _ in probed if inst in execute]
    return statistics.fmean(diffs) if diffs else 0.0

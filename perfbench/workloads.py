"""The three workloads: seeded inputs, the measured window, raw outcomes.

Each workload builds every input from its seed before the window opens, so
the program under test receives only generated problems. The window then
runs against the public API, and the workload returns a :class:`Window`
of raw outcomes; ``run.py`` turns windows into metrics.

* ``solve-mix`` — one caller, closed loop, ``Framework.solve`` on a fixed
  menu of instances covering all four execution strategies, the scan tier,
  three executors and a dataflow share. The menu is re-solved in a seeded
  order per cycle and rates count whole cycles only, so the mix is the
  same in every run.
* ``serve-open`` — an open loop from one generator thread into a thread
  backend ``SolveService`` with cache, coalescing, delta and an SLO policy;
  small instances, read-heavy on the cache.
* ``serve-process`` — a closed loop of two clients against the process
  backend; large instances, mostly cache writes.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ExecOptions, Framework, SLOPolicy
from repro.errors import ReproError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_dtw,
    make_fig8_problem,
    make_lcs,
    make_levenshtein,
    make_needleman_wunsch,
    make_prefix_sum,
)
from repro.serve import ServiceConfig, SolveRequest, SolveService

from oracle import Sample

# -- instances -----------------------------------------------------------------

_MAKERS = {
    "levenshtein": make_levenshtein,
    "lcs": make_lcs,
    "dtw": make_dtw,
    "needleman-wunsch": make_needleman_wunsch,
    "checkerboard": make_checkerboard,
    "prefix-sum": make_prefix_sum,
}


def make_instance(kind: str, size: int, seed: int):
    """One seeded problem instance of ``kind`` at ``size``².

    Dithering's test card and fig8's recurrence take no seed of their own,
    so the seed perturbs the image and picks the additive constant.
    """
    if kind == "dithering":
        base = make_dithering(size)
        rng = np.random.default_rng(seed)
        image = np.clip(
            base.payload["image"] + rng.uniform(-8.0, 8.0, base.shape),
            0.0, 255.0,
        )
        return dataclasses.replace(base, payload={**base.payload,
                                                  "image": image})
    if kind == "fig8":
        return make_fig8_problem(size, c=1.0 + (seed % 97) / 8.0)
    return _MAKERS[kind](size, seed=seed)


def edit_one_cell(problem, rng: random.Random):
    """A copy of ``problem`` with one payload element changed.

    The edit lands in the last 40% of the sequence (or rows), so the
    cone of cells it invalidates stays under the delta tier's limit.
    """
    payload = dict(problem.payload)
    if "a" in payload:  # two-sequence alignment problems
        a = payload["a"].copy()
        k = rng.randrange(int(len(a) * 0.6), len(a))
        a[k] = (a[k] + 1) % 4
        payload["a"] = a
    else:  # checkerboard cost board
        cost = payload["cost"].copy()
        rows, cols = cost.shape
        cost[rng.randrange(int(rows * 0.6), rows), rng.randrange(cols)] += 1.0
        payload["cost"] = cost
    return dataclasses.replace(problem, payload=payload)


# -- raw outcomes --------------------------------------------------------------


@dataclass
class Op:
    """One attempted operation: when it was due, started and finished."""

    rid: int
    instance: object  # id of the problem instance, for oracle memoization
    problem: object
    category: str
    due: float = 0.0  # perf_counter seconds; latency is timed from here
    done: float | None = None
    error: str | None = None


@dataclass
class Window:
    """What one measured window produced."""

    workload: str
    limit_ms: float
    ops: list[Op] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    counted: list[Op] | None = None  # ops the rates count (whole cycles)
    rate_span: float | None = None  # seconds those ops took
    setup_s: list[float] = field(default_factory=list)
    rss_pids: list[int] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # workload-side layer data
    sample: Sample | None = None
    #: ``(instance, problem, executor)`` solved again after the window to
    #: pair its wall with ``Executor.estimate`` (traced runs only).
    probe_pairs: list = field(default_factory=list)


def _finish(op: Op, outcome, sample: Sample) -> None:
    """Record a completed op's result (or error) and offer it for checking."""
    if isinstance(outcome, BaseException):
        op.error = type(outcome).__name__
        return
    sample.offer(op.category, op.instance, op.problem, outcome)


def _open_window(window: Window, recorder, svc=None) -> None:
    """A fresh metrics registry and span store, then start the clock.

    A service's counters are snapshotted too, so the layer metrics count
    the window only, not the warm-up.
    """
    if svc is not None:
        window.layer["stats_at_open"] = svc.stats()
    set_metrics(MetricsRegistry())
    if recorder is not None:
        recorder.clear()
    window.start = time.perf_counter()


def _set_up(window: Window, make, warm, setups: int):
    """Build and warm a service ``setups`` times; return the last one.

    Each build and warm-up is timed into ``window.setup_s``. A service
    whose warm-up fails is closed before the error propagates, so its
    workers never outlive the run.
    """
    svc = None
    for k in range(setups):
        t0 = time.perf_counter()
        svc = make()
        try:
            for pending in [svc.submit(request) for request in warm()]:
                pending.result()
        except BaseException:
            svc.close(wait=False)
            raise
        window.setup_s.append(time.perf_counter() - t0)
        if k < setups - 1:
            svc.close()
    return svc


# -- solve-mix -----------------------------------------------------------------

#: ``(kind, size, executor, dataflow)``: one cycle of the solve mix. Problems
#: checked by the sequential oracle stay at <= 512² so one fits the oracle
#: budget; the larger slots have exact reference oracles.
SOLVE_MENU = (
    ("levenshtein", 512, "cpu", False),
    ("levenshtein", 512, "cpu-blocked", False),
    ("lcs", 512, "hetero", False),
    ("lcs", 256, "cpu-blocked", True),
    ("dtw", 512, "hetero", False),
    ("needleman-wunsch", 512, "cpu", False),
    ("dithering", 512, "hetero", False),
    ("dithering", 256, "cpu", False),
    ("checkerboard", 1024, "hetero", False),
    ("checkerboard", 512, "cpu", False),
    ("fig8", 512, "cpu", False),
    ("fig8", 256, "hetero", False),
    ("prefix-sum", 1024, "cpu", False),
    ("prefix-sum", 768, "hetero", False),
)
SOLVE_LIMIT_MS = 2000.0


def solve_mix_inputs(seed: int):
    """The menu's instances and the per-cycle slot orders, from ``seed``."""
    rng = random.Random(seed)
    instances = [
        (make_instance(kind, size, rng.randrange(1 << 30)), executor, df)
        for kind, size, executor, df in SOLVE_MENU
    ]

    def orders():
        order_rng = random.Random(seed * 7919 + 1)
        slots = list(range(len(SOLVE_MENU)))
        while True:
            order_rng.shuffle(slots)
            yield list(slots)

    return instances, orders


def run_solve_mix(seed: int, seconds: float, *, setups: int, recorder=None,
                  oracle_seed: int = 0) -> Window:
    window = Window("solve-mix", SOLVE_LIMIT_MS)
    instances, orders = solve_mix_inputs(seed)
    dataflow = ExecOptions(dataflow=True)

    def call(framework, slot):
        problem, executor, df = instances[slot]
        return framework.solve(problem, executor=executor,
                               options=dataflow if df else None)

    framework = None
    for _ in range(setups):
        t0 = time.perf_counter()
        framework = Framework()
        for slot in range(len(instances)):
            call(framework, slot)
        window.setup_s.append(time.perf_counter() - t0)
    window.sample = Sample(oracle_seed)
    rid = 0
    counted: list[Op] = []
    _open_window(window, recorder)
    deadline = window.start + seconds
    cycle_end = window.start
    for order in orders():
        cycle_ops = []
        for slot in order:
            if time.perf_counter() >= deadline:
                break
            problem, executor, _ = instances[slot]
            op = Op(rid, slot, problem, f"{slot:02d}-{problem.name}")
            rid += 1
            if recorder is not None:
                recorder.set_request(op.rid)
            op.due = time.perf_counter()
            try:
                outcome = call(framework, slot)
            except ReproError as exc:
                outcome = exc
            op.done = time.perf_counter()
            _finish(op, outcome, window.sample)
            window.ops.append(op)
            cycle_ops.append(op)
        else:
            counted.extend(cycle_ops)
            cycle_end = time.perf_counter()
            continue
        break
    window.end = time.perf_counter()
    window.layer["metrics"] = get_metrics().snapshot()
    if recorder is not None:
        recorder.set_request(None)
    window.counted = counted
    window.rate_span = cycle_end - window.start
    window.probe_pairs = [(slot, p, ex)
                          for slot, (p, ex, df) in enumerate(instances)
                          if not df]
    return window


# -- serve-open ----------------------------------------------------------------

SERVE_KINDS = ("levenshtein", "lcs", "checkerboard")
SERVE_SIZES = (48, 60, 72, 84, 96, 108, 120, 132, 146, 160)
#: Arrivals per second, about half of the mix's capacity on a 2-core box.
SERVE_RATE = 70.0
SERVE_LIMIT_MS = 500.0
#: One block of ten arrivals: exact repeats, one-cell edits, fresh misses.
SERVE_BLOCK = ("repeat",) * 5 + ("edit",) * 2 + ("fresh",) * 3
ZIPF_S = 1.0


def _serve_shapes():
    """Shapes in Zipf rank order; fixed, so every seed has one size mix."""
    shapes = [(k, s) for s in SERVE_SIZES for k in SERVE_KINDS]
    random.Random(0).shuffle(shapes)
    return shapes


@dataclass
class Arrival:
    due: float  # seconds after the window opens
    instance: int
    problem: object
    category: str


def serve_open_inputs(seed: int, seconds: float, rate: float = SERVE_RATE):
    """The warm-up pool and the arrival schedule, from ``seed``.

    Arrivals come in blocks of ``len(SERVE_BLOCK)``, each block spanning
    ``len(SERVE_BLOCK) / rate`` seconds: a Poisson process conditioned on
    that many arrivals per block (uniform times, sorted), which holds the
    rate and the request mix steady across the window and across seeds.
    """
    rng = random.Random(seed)
    shapes = _serve_shapes()
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(shapes))]
    instances = [make_instance(kind, size, rng.randrange(1 << 30))
                 for kind, size in shapes]
    latest = {shape: k for k, shape in enumerate(shapes)}
    pool = list(instances)
    span = len(SERVE_BLOCK) / rate
    arrivals = []
    for start in range(max(1, round(seconds / span))):
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        times = sorted(rng.uniform(0.0, span) for _ in block)
        for due, category in zip(times, block):
            shape = rng.choices(shapes, weights)[0]
            arrivals.append(_arrival(start * span + due, category, shape,
                                     latest, instances, rng))
    return pool, arrivals


def _arrival(due, category, shape, latest, instances, rng) -> Arrival:
    """One arrival; edits and fresh misses replace the shape's latest."""
    if category == "edit":
        instances.append(edit_one_cell(instances[latest[shape]], rng))
        latest[shape] = len(instances) - 1
    elif category == "fresh":
        instances.append(
            make_instance(shape[0], shape[1], rng.randrange(1 << 30))
        )
        latest[shape] = len(instances) - 1
    index = latest[shape]
    return Arrival(due, index, instances[index], category)


def _serve_open_service():
    policy = SLOPolicy(min_workers=2, max_workers=2)
    config = ServiceConfig(
        workers=2, cache_size=256, queue_size=1024, coalesce_window=0.002,
        options=ExecOptions(delta=True), slo=policy,
    )
    return SolveService(config=config)


def run_serve_open(seed: int, seconds: float, *, setups: int, recorder=None,
                   oracle_seed: int = 0, rate: float = SERVE_RATE) -> Window:
    window = Window("serve-open", SERVE_LIMIT_MS)
    pool, arrivals = serve_open_inputs(seed, seconds, rate)
    timeout = SERVE_LIMIT_MS / 1e3
    window.sample = Sample(oracle_seed)
    ops = window.ops = [Op(k, a.instance, a.problem, a.category)
                        for k, a in enumerate(arrivals)]
    lateness = []
    all_done = threading.Event()
    remaining = [len(ops)]
    lock = threading.Lock()

    def on_done(op: Op, pending):
        # Runs on the worker thread that resolves the request. The result
        # is classified and offered to the sample here, so the window
        # keeps no results alive (a heap of them lengthens GC pauses).
        def callback(future):
            op.done = time.perf_counter()
            try:
                outcome = future.result()
            except Exception as exc:  # noqa: BLE001 - counted as failure
                outcome = exc
            if isinstance(outcome, BaseException):
                pass
            elif pending.cache_hit:
                op.category = "hit"
            elif outcome.stats.get("solver") == "delta":
                op.category = "delta"
            else:
                op.category = "miss"
            with lock:
                _finish(op, outcome, window.sample)
                remaining[0] -= 1
                if remaining[0] == 0:
                    all_done.set()
        return callback

    submitted = {}  # rid -> perf_counter_ns when submit returned
    svc = _set_up(window, _serve_open_service,
                  lambda: [SolveRequest(p, timeout=10.0) for p in pool],
                  setups)
    try:
        _open_window(window, recorder, svc)
        for op, arrival in zip(ops, arrivals):
            op.due = window.start + arrival.due
            delay = op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(time.perf_counter() - op.due)
            if recorder is not None:
                recorder.set_request(op.rid)
            try:
                request = SolveRequest(op.problem, timeout=timeout)
                if recorder is not None:
                    recorder.bind(request, op.rid)
                pending = svc.submit(request)
            except ReproError as exc:
                op.done = time.perf_counter()
                op.error = type(exc).__name__
                with lock:
                    remaining[0] -= 1
                continue
            if recorder is not None:
                submitted[op.rid] = time.perf_counter_ns()
            # PendingSolve has no public completion hook; its future's
            # callback stamps completion on the thread that resolves it.
            pending._future.add_done_callback(on_done(op, pending))
            del pending
        window.info["queue_depth_end"] = svc.queue_depth()
        with lock:
            if remaining[0] == 0:
                all_done.set()
        all_done.wait(timeout + 30.0)
        window.end = time.perf_counter()
        window.layer["metrics"] = get_metrics().snapshot()
        if recorder is not None:
            recorder.set_request(None)
        _service_layer(window, svc, recorder)
        window.layer["submitted_ns"] = submitted
    finally:
        svc.close()
    window.info["lateness_s"] = lateness
    window.probe_pairs = [(k, p, "hetero") for k, p in enumerate(pool)]
    return window


def _service_layer(window: Window, svc, recorder) -> None:
    """Service-side layer data, read before the service closes."""
    window.layer["service_stats"] = svc.stats()
    metrics = get_metrics()
    if "serve.queue_wait_ms" in metrics:
        window.layer["queue_wait"] = metrics.histogram("serve.queue_wait_ms")
    if recorder is not None:
        window.layer["cache_bytes"] = sum(
            nbytes for key, nbytes in recorder.cache_bytes.items()
            if key in svc.cache
        )


# -- serve-process -------------------------------------------------------------

#: ``(kind, size, executor)``: the fresh instances of one block, in seeded
#: order; each block adds two repeats of recent requests. Every problem
#: here pickles, so every miss runs in a worker process (an unpicklable
#: one, such as checkerboard, would run on the parent's dispatch thread).
PROCESS_MENU = (
    ("levenshtein", 512, "cpu"),
    ("lcs", 512, "hetero"),
    ("dtw", 512, "hetero"),
    ("dithering", 512, "hetero"),
    ("prefix-sum", 768, "hetero"),
    ("prefix-sum", 1024, "cpu"),
)
PROCESS_REPEATS = 2
PROCESS_CLIENTS = 2
PROCESS_LIMIT_MS = 3000.0
#: Result-cache entries; smaller than the ring of fresh instances, so an
#: instance is evicted long before the ring brings it round again.
PROCESS_CACHE = 12
PROCESS_RING_BLOCKS = 4


def serve_process_inputs(seed: int, count: int):
    """``count`` operations: fresh instances plus repeats, from ``seed``.

    Fresh instances come from a ring of :data:`PROCESS_RING_BLOCKS` blocks
    of the menu, which bounds the memory the inputs take; each comes round
    again only after more fresh requests than the cache holds, so it is a
    miss every time. Repeats re-send a request 4-9 places back, which is
    done and still cached.
    """
    rng = random.Random(seed)
    ring = [
        [(k + PROCESS_RING_BLOCKS * slot,
          make_instance(kind, size, rng.randrange(1 << 30)), executor)
         for slot, (kind, size, executor) in enumerate(PROCESS_MENU)]
        for k in range(PROCESS_RING_BLOCKS)
    ]
    ops = []  # (instance index, problem, executor, category)
    block_no = 0
    while len(ops) < count:
        block = list(ring[block_no % PROCESS_RING_BLOCKS])
        block_no += 1
        rng.shuffle(block)
        entries = [(index, problem, executor, "miss")
                   for index, problem, executor in block]
        for _ in range(PROCESS_REPEATS):
            back = rng.randrange(4, 10)
            if len(ops) >= back:
                index, problem, executor, _ = ops[-back]
                entries.insert(rng.randrange(3, len(entries) + 1),
                               (index, problem, executor, "repeat"))
        ops.extend(entries)
    return ops[:count]


def _serve_process_service():
    config = ServiceConfig(backend="process", workers=2,
                           cache_size=PROCESS_CACHE, queue_size=64)
    return SolveService(config=config)


def run_serve_process(seed: int, seconds: float, *, setups: int,
                      recorder=None, oracle_seed: int = 0) -> Window:
    window = Window("serve-process", PROCESS_LIMIT_MS)
    # Enough operations for the fastest plausible program; the window
    # stops at the deadline, not at the end of the list.
    plan = serve_process_inputs(seed, max(64, int(seconds * 100)))
    warm = [(make_instance(kind, size, 1 << 31), executor)
            for kind, size, executor in PROCESS_MENU]
    window.sample = Sample(oracle_seed)
    next_op = [0]
    lock = threading.Lock()
    deadline = None  # set when the window opens

    def client():
        while True:
            with lock:
                k = next_op[0]
                next_op[0] += 1
            if k >= len(plan) or time.perf_counter() >= deadline:
                return
            index, problem, executor, category = plan[k]
            op = Op(k, index, problem, category)
            if recorder is not None:
                recorder.set_request(op.rid)
            op.due = time.perf_counter()
            try:
                request = SolveRequest(problem, executor=executor)
                if recorder is not None:
                    recorder.bind(request, op.rid)
                pending = svc.submit(request)
                outcome = pending.result()
                hit = pending.cache_hit
            except ReproError as exc:
                outcome, hit = exc, False
            op.done = time.perf_counter()
            if not isinstance(outcome, BaseException):
                op.category = ("hit-" if hit else "miss-") + problem.name
            with lock:
                _finish(op, outcome, window.sample)
                window.ops.append(op)
            del outcome

    svc = _set_up(window, _serve_process_service,
                  lambda: [SolveRequest(p, executor=ex, cacheable=False)
                           for p, ex in warm],
                  setups)
    try:
        _open_window(window, recorder, svc)
        deadline = window.start + seconds
        threads = [threading.Thread(target=client, name=f"bench-client-{k}")
                   for k in range(PROCESS_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 120.0)
        window.end = time.perf_counter()
        window.layer["metrics"] = get_metrics().snapshot()
        window.ops.sort(key=lambda op: op.rid)
        _service_layer(window, svc, recorder)
        pids = window.layer["service_stats"]["backend"].get("pids", {})
        window.rss_pids = list(pids.values())
        window.info["worker_rss_kb"] = _worker_rss_kb(window.rss_pids)
    finally:
        svc.close()
    window.probe_pairs = [(index, p, ex) for index, p, ex, cat in plan[:12]
                          if cat == "miss"][:4]
    return window


# -- resources -----------------------------------------------------------------


def _worker_rss_kb(pids) -> int:
    """Sum of the peak resident sizes (``VmHWM``) of live worker pids."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


def leaks(worker_pids=()) -> list[str]:
    """Names of everything a closed service left behind."""
    import multiprocessing
    import os

    from repro.serve.shm import live_segment_count

    gc.collect()
    found = []
    segments = live_segment_count()
    if segments:
        found.append(f"shm-segments:{segments}")
    for thread in threading.enumerate():
        if thread.name.startswith(("solve-worker-", "solve-autoscaler")):
            found.append(f"thread:{thread.name}")
    for child in multiprocessing.active_children():
        found.append(f"process:{child.pid}")
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:
            pass
        found.append(f"worker-process:{pid}")
    return found


#: Each workload's runner, and how many set-ups an untraced run times
#: (``setup_s`` is their median; the first set-up in a process compiles
#: kernel plans, so the cheap in-process set-ups repeat more often).
WORKLOADS = {
    "solve-mix": (run_solve_mix, 9),
    "serve-open": (run_serve_open, 5),
    "serve-process": (run_serve_process, 5),
}

#: Workloads that run by name but are not listed in ``BENCHMARK.json``:
#: on a shared 2-vCPU host, ``serve-open``'s latency and set-up medians
#: moved by a third between two sets of ten runs of the same code, more
#: than any regression bound allows, so no result can be gated on them.
UNGATED = ("serve-open",)

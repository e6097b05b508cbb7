"""Tests for the process-pool serve backend and shared-memory transport.

Everything a spawned worker must reconstruct lives at module level here on
purpose: ``spawn`` re-imports this module in the child, so the custom
executor class and the custom cell function below exercise the
pickle-by-reference round trip the worker initializer depends on.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import ContributingSet, Framework, LDDPProblem
from repro.exec import SequentialExecutor
from repro.exec.base import register_executor, unregister_executor
from repro.machine.platform import hetero_high
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.problems import make_lcs, make_levenshtein
from repro.serve import ServiceConfig, SolveService
from repro.serve.shm import live_segment_count

PROCESS = ServiceConfig(backend="process", workers=1, cache_size=0)


class TaggingExecutor(SequentialExecutor):
    """Sequential semantics, but stamps the solving process's pid."""

    name = "tagging"

    def _run(self, problem, functional, **kwargs):
        result = super()._run(problem, functional, **kwargs)
        result.stats["solved_in_pid"] = os.getpid()
        return result


def quirk_cell(ctx):
    """A cell function that does not ship with the library."""
    return np.maximum(ctx.w, ctx.n) + ctx.payload["step"][ctx.j - 1]


def dying_cell(ctx):
    """:func:`quirk_cell`, but its first call in a worker process kills it."""
    flag = ctx.payload["flag"]
    if mp.parent_process() is not None and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return quirk_cell(ctx)


def _quirk_init(table, payload):
    table[0, :] = 0
    table[:, 0] = 0


def make_quirk(n: int, seed: int = 0) -> LDDPProblem:
    rng = np.random.default_rng(seed)
    return LDDPProblem(
        name=f"quirk-{n}-{seed}",
        shape=(n, n),
        contributing=ContributingSet.of("W", "N"),
        cell=quirk_cell,
        init=_quirk_init,
        fixed_rows=1,
        fixed_cols=1,
        dtype=np.int64,
        payload={"step": rng.integers(0, 5, n, dtype=np.int64)},
    )


def _drain_segments():
    gc.collect()
    deadline = time.monotonic() + 5.0
    while live_segment_count() and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.02)
    return live_segment_count()


class TestProcessRoundTrip:
    def test_bit_identical_zero_copy_and_clean_shutdown(self):
        problem = make_levenshtein(48)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        svc = SolveService(hetero_high(), config=PROCESS)
        try:
            result = svc.solve(problem)
            assert np.array_equal(result.table, oracle.table)
            # zero-copy transport: a read-only view over the shm block
            assert result.stats["transport"] == "shm"
            assert not result.table.flags.writeable
            pids = list(svc.stats()["backend"]["pids"].values())
        finally:
            svc.close()
        del result
        assert _drain_segments() == 0
        for pid in pids:  # close() reaps every worker process
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_estimate_crosses_the_boundary_without_a_table(self):
        with SolveService(hetero_high(), config=PROCESS) as svc:
            est = svc.solve(make_levenshtein(32), functional=False)
        assert est.table is None
        assert est.simulated_ms > 0

    def test_spawned_worker_runs_custom_executor_and_cell_function(self):
        problem = make_quirk(32)
        oracle = Framework(hetero_high()).solve(problem, executor="sequential")
        register_executor("tagging", TaggingExecutor)
        try:
            with SolveService(hetero_high(), config=PROCESS) as svc:
                result = svc.solve(problem, executor="tagging")
                backend = svc.stats()["backend"]
            assert np.array_equal(result.table, oracle.table)
            # proves the spawn initializer re-registered the executor and
            # the solve really happened in the worker process
            assert result.stats["solved_in_pid"] != os.getpid()
            assert result.stats["solved_in_pid"] in backend["pids"].values()
        finally:
            unregister_executor("tagging")


class TestShmLifecycle:
    def test_segments_unlink_when_the_last_result_ref_drops(self):
        # NB: the dispatch thread's frame pins the *most recent* result
        # until the next job or join, so ref-drop asserts use earlier ones.
        with SolveService(hetero_high(), config=PROCESS) as svc:
            results = [svc.solve(make_levenshtein(24, seed=s))
                       for s in range(3)]
            assert live_segment_count() >= 3
            results.pop(0)
            gc.collect()
            assert live_segment_count() == 2
            del results
        assert _drain_segments() == 0

    def test_views_over_one_segment_share_its_refcount(self):
        with SolveService(hetero_high(), config=PROCESS) as svc:
            first = svc.solve(make_levenshtein(24))
            svc.solve(make_levenshtein(16))  # bump `first` off the frame
            table = first.table
            del first  # the table view alone must keep the segment alive
            gc.collect()
            assert live_segment_count() >= 1
            assert int(table[-1, -1]) >= 0  # still readable
            del table
        assert _drain_segments() == 0


class TestSegmentIndex:
    def test_warm_hits_are_zero_copy_and_survive_worker_restart(self):
        cfg = PROCESS.replace(cache_size=8)
        problem = make_levenshtein(40)
        with SolveService(hetero_high(), config=cfg) as svc:
            miss = svc.solve(problem)
            assert miss.stats["transport"] == "shm"
            hit = svc.solve(problem)
            assert hit.stats["transport"] == "shm-index"
            assert not hit.table.flags.writeable
            assert np.array_equal(hit.table, miss.table)

            # kill the worker; a different problem forces respawn, then the
            # original must still come back warm from the segment index
            pid = next(iter(svc.stats()["backend"]["pids"].values()))
            os.kill(pid, signal.SIGKILL)
            other = svc.solve(make_lcs(24))
            assert other.table is not None
            assert svc.stats()["backend"]["restarts"] >= 1
            warm = svc.solve(problem)
            assert warm.stats["transport"] == "shm-index"
            assert np.array_equal(warm.table, miss.table)
        del miss, hit, warm, other
        assert _drain_segments() == 0


class TestBackendStats:
    def test_stats_aggregate_across_worker_processes(self):
        cfg = ServiceConfig(backend="process", workers=2, cache_size=0)
        with SolveService(hetero_high(), config=cfg) as svc:
            for s in range(4):
                svc.solve(make_levenshtein(24, seed=s))
            stats = svc.stats()
        backend = stats["backend"]
        assert backend["kind"] == "process"
        assert stats["workers"] == 2 == backend["workers"]
        assert len(backend["pids"]) == 2
        assert stats["config"]["backend"] == "process"
        per_worker = backend["per_worker"]
        assert len(per_worker) == 2
        assert sum(h.get("jobs", 0) for h in per_worker.values()) >= 1

    def test_coalesced_batches_execute_in_one_worker(self):
        cfg = ServiceConfig(backend="process", workers=2, cache_size=0,
                            coalesce_window=0.05, max_batch=8)
        problems = [make_quirk(24, seed=s) for s in range(4)]
        oracle = [Framework(hetero_high()).solve(p, executor="sequential")
                  for p in problems]
        with SolveService(hetero_high(), config=cfg) as svc:
            pending = [svc.submit_problem(p) for p in problems]
            results = [p.result(timeout=120) for p in pending]
        for got, want in zip(results, oracle):
            assert np.array_equal(got.table, want.table)
        assert any(r.stats.get("batched", 0) > 1 for r in results)


def _batch_metrics(snapshot: dict) -> dict:
    return {name: entry for name, entry in snapshot.items()
            if name.startswith("batch.")}


def _solo_then_pair(problems, counter: str):
    """Serve ``problems[0]`` alone, then ``problems[1:]`` as one coalesced
    pair; returns the results, ``counter`` after each step and the batch
    metrics seen after the solo request."""
    metrics = get_metrics()
    cfg = PROCESS.replace(coalesce_window=0.2)
    with SolveService(hetero_high(), config=cfg) as svc:
        solo = svc.solve(problems[0])
        after_solo = metrics.counter(counter).value
        workers = svc.stats()["backend"]["per_worker"].values()
        solo_batch = [_batch_metrics(metrics.snapshot())] + [
            _batch_metrics(h.get("metrics", {})) for h in workers
        ]
        pending = [svc.submit_problem(p) for p in problems[1:]]
        pair = [p.result(timeout=120) for p in pending]
        after_pair = metrics.counter(counter).value
    oracle = [Framework(hetero_high()).solve(p, executor="sequential")
              for p in problems]
    for got, want in zip([solo] + pair, oracle):
        assert got.table.tobytes() == want.table.tobytes()
    assert "batched" not in solo.stats
    assert all(r.stats["batched"] == 2 for r in pair)
    return (after_solo, after_pair), solo_batch


class TestOneJobFormat:
    """A lone request and a coalesced group ship as the same job format."""

    @pytest.fixture(autouse=True)
    def fresh_metrics(self):
        previous = set_metrics(MetricsRegistry())
        try:
            yield
        finally:
            set_metrics(previous)

    def test_solo_and_coalesced_jobs_dispatch_once_each(self):
        problems = [make_quirk(24, seed=s) for s in range(3)]
        counts, solo_batch = _solo_then_pair(
            problems, "serve.backend.dispatched")
        assert counts == (1, 2)
        # a lone request counts in no batch.* metric, here or in a worker
        assert solo_batch == [{}] * len(solo_batch)
        assert get_metrics().counter("serve.backend.inline").value == 0

    def test_unpicklable_cell_runs_inline_solo_and_coalesced(self):
        def local_cell(ctx):  # local: pickles by reference only at top level
            return np.maximum(ctx.w, ctx.n) + ctx.payload["step"][ctx.j - 1]

        problems = [replace(make_quirk(24, seed=s), cell=local_cell)
                    for s in range(3)]
        with pytest.raises(Exception):
            pickle.dumps(problems[0])
        counts, solo_batch = _solo_then_pair(problems, "serve.backend.inline")
        assert counts == (1, 2)
        assert solo_batch == [{}] * len(solo_batch)
        assert get_metrics().counter("serve.backend.dispatched").value == 0


class TestWorkerDeath:
    def test_death_mid_batch_retries_every_member(self, tmp_path):
        # The worker dies inside a coalesced job; each member must take the
        # per-request retry path (on the respawned worker), not strand its
        # future with the dispatch thread.
        flag = str(tmp_path / "died")
        problems = []
        for s in range(2):
            base = make_quirk(24, seed=s)
            problems.append(replace(base, cell=dying_cell,
                                    payload=dict(base.payload, flag=flag)))
        cfg = PROCESS.replace(coalesce_window=0.2)
        with SolveService(hetero_high(), config=cfg) as svc:
            pending = [svc.submit_problem(p) for p in problems]
            results = [p.result(timeout=60) for p in pending]
            assert svc.stats()["backend"]["restarts"] == 1
        assert os.path.exists(flag)
        for problem, got in zip(problems, results):
            want = Framework(hetero_high()).solve(
                replace(problem, cell=quirk_cell), executor="sequential")
            assert got.table.tobytes() == want.table.tobytes()

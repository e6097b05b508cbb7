"""Barrier-free tile dataflow: graph geometry, bit-equality, control, pricing.

The load-bearing guarantees:

* the tile graph's edges cover every cross-tile cell dependency (brute-force
  checked against the contributing set's offsets);
* dataflow and barrier schedules produce bit-identical tables for all 15
  contributing sets, degenerate shapes and odd block sizes (hypothesis);
* cancellation/deadline abort within one tile per worker and a
  ``dataflow.tile`` fault degrades to the barrier path bit-identically;
* ``blocked_makespan`` agrees exactly with the blocked executor's DES
  in both schedules, and admission pricing routes ``cpu-blocked`` through it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContributingSet, ExecOptions, Framework
from repro.cancel import CancelToken
from repro.core.blocking import (
    blocking_cache_info,
    clear_blocking_cache,
    grid_for,
)
from repro.core.problem import LDDPProblem
from repro.dataflow import (
    DataflowStats,
    clear_graph_cache,
    dataflow_timeline,
    graph_cache_info,
    graph_for,
    run_dataflow,
    skewed_offsets,
    square_offsets,
)
from repro.errors import ScheduleError, ServiceTimeout, SolveCancelled
from repro.exec.blocked import blocked_makespan
from repro.exec.hetero import hetero_timeline
from repro.faults import inject_faults
from repro.obs import get_metrics
from repro.problems.synthetic import make_fig8_problem, make_synthetic
from repro.sim.dataflow import schedule_tiles
from repro.types import Pattern

SETTINGS = settings(max_examples=25, deadline=None)

ALL_MASKS = list(range(1, 16))


def _tile_of(cs, block, i, j):
    """Tile coordinates of cell ``(i, j)`` under the grid a set gets."""
    if cs.ne:
        return i // block, (2 * i + j) // block
    return i // block, j // block


def _cell_deps(cs, i, j):
    if cs.w:
        yield i, j - 1
    if cs.nw:
        yield i - 1, j - 1
    if cs.n:
        yield i - 1, j
    if cs.ne:
        yield i - 1, j + 1


# -- graph geometry ------------------------------------------------------------


class TestTileGraph:
    @pytest.mark.parametrize("mask", ALL_MASKS)
    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_edges_cover_every_cross_tile_dependency(self, mask, block):
        """Brute force: every cell dep lands intra-tile or on a graph edge."""
        cs = ContributingSet.from_mask(mask)
        rows, cols = 11, 9
        grid = grid_for(
            rows, cols, block,
            pattern=None if cs.ne else Pattern.ANTI_DIAGONAL,
            skewed=cs.ne,
        )
        graph = graph_for(grid, cs)
        edges = set()
        for nid in range(graph.num_nodes):
            ti, tj = divmod(nid, graph.ncols)
            for p in graph.predecessors(nid):
                pi, pj = divmod(int(p), graph.ncols)
                edges.add(((pi, pj), (ti, tj)))
        for i in range(rows):
            for j in range(cols):
                home = _tile_of(cs, block, i, j)
                for di, dj in _cell_deps(cs, i, j):
                    if di < 0 or dj < 0 or dj >= cols:
                        continue
                    dep = _tile_of(cs, block, di, dj)
                    assert dep == home or (dep, home) in edges, (
                        f"cell ({i},{j}) dep ({di},{dj}): tile {dep} -> "
                        f"{home} has no edge (mask={mask}, block={block})"
                    )

    @pytest.mark.parametrize("mask", ALL_MASKS)
    def test_offsets_are_acyclic(self, mask):
        """All offsets componentwise <= 0 and never (0, 0) — a DAG always."""
        cs = ContributingSet.from_mask(mask)
        for block in (1, 2, 3, 64):
            offs = (
                skewed_offsets(cs, block)
                if cs.ne
                else square_offsets(cs, block)
            )
            for d_i, d_j in offs:
                assert d_i <= 0 and d_j <= 0 and (d_i, d_j) != (0, 0)

    def test_small_skewed_blocks_reach_beyond_unit_neighbours(self):
        """block < 3 skewed tilings need offsets a W/NW/N model would miss."""
        cs = ContributingSet.of("W", "NE")  # knight-move, NW dep dv=-3 absent
        offs = skewed_offsets(ContributingSet.from_mask(15), 1)
        assert (-1, -3) in offs and (-1, -2) in offs
        offs2 = skewed_offsets(ContributingSet.from_mask(15), 2)
        assert (0, -2) in offs2 or (-1, -2) in offs2
        assert cs.ne  # sanity: the set classifies as knight-move

    def test_square_offsets_reject_ne(self):
        with pytest.raises(ScheduleError):
            square_offsets(ContributingSet.of("NE"), 4)

    def test_roots_and_counts(self):
        cs = ContributingSet.of("W", "N")
        grid = grid_for(20, 20, 5, pattern=Pattern.ANTI_DIAGONAL)
        graph = graph_for(grid, cs)
        assert graph.num_nodes == 16
        assert graph.roots().tolist() == [0]
        assert int(graph.indegree.sum()) == graph.num_edges

    def test_w_only_rows_are_independent_chains(self):
        """Exactness matters for parallelism: W-only rows never cross-link."""
        cs = ContributingSet.of("W")
        grid = grid_for(12, 12, 3, pattern=Pattern.VERTICAL)
        graph = graph_for(grid, cs)
        assert len(graph.roots()) == graph.nrows
        for nid in range(graph.num_nodes):
            for p in graph.predecessors(nid):
                assert int(p) // graph.ncols == nid // graph.ncols

    def test_signature_is_content_stable(self):
        cs = ContributingSet.of("NW")
        g1 = graph_for(grid_for(10, 10, 4, pattern=Pattern.HORIZONTAL), cs)
        g2 = graph_for(grid_for(10, 10, 4, pattern=Pattern.HORIZONTAL), cs)
        assert g1.signature() == g2.signature()
        g3 = graph_for(grid_for(10, 10, 5, pattern=Pattern.HORIZONTAL), cs)
        assert g1.signature() != g3.signature()


class TestCaches:
    def test_grid_cache_hits_on_repeat_solves(self, fw, minsum_factory):
        clear_blocking_cache()
        p = minsum_factory(ContributingSet.of("NW", "N"))
        opts = ExecOptions(block_size=4)
        fw.solve(p, executor="cpu-blocked", options=opts)
        fw.solve(p, executor="cpu-blocked", options=opts)
        info = blocking_cache_info()
        assert info.misses >= 1 and info.hits >= 1

    def test_grid_cache_identity(self):
        clear_blocking_cache()
        a = grid_for(30, 20, 7, pattern=Pattern.ANTI_DIAGONAL)
        b = grid_for(30, 20, 7, pattern=Pattern.ANTI_DIAGONAL)
        assert a is b
        c = grid_for(30, 20, 7, skewed=True)
        assert c is not a and blocking_cache_info().size == 2

    def test_grid_for_requires_pattern_for_square(self):
        with pytest.raises(ScheduleError):
            grid_for(10, 10, 2)

    def test_graph_cache_hits(self):
        clear_graph_cache()
        cs = ContributingSet.of("W", "NE")
        grid = grid_for(16, 16, 4, skewed=True)
        g1 = graph_for(grid, cs)
        g2 = graph_for(grid, cs)
        assert g1 is g2
        info = graph_cache_info()
        assert info.hits == 1 and info.misses == 1


# -- bit-equality --------------------------------------------------------------


class TestBitEquality:
    @pytest.mark.parametrize("mask", ALL_MASKS)
    def test_all_sets_match_sequential_oracle(self, fw, mask):
        cs = ContributingSet.from_mask(mask)
        p = make_synthetic(cs, 33, 29)
        ref = fw.solve(p, executor="sequential").table
        for block in (3, 16):
            opts = ExecOptions(block_size=block, dataflow=True,
                               dataflow_workers=4)
            res = fw.solve(p, executor="cpu-blocked", options=opts)
            assert res.stats["schedule"] == "dataflow"
            assert np.array_equal(ref, res.table)

    @pytest.mark.parametrize("shape", [(1, 23), (23, 1), (1, 1), (2, 37)])
    def test_degenerate_shapes(self, fw, shape):
        for mask in (4, 7, 9, 15):
            p = make_synthetic(ContributingSet.from_mask(mask), *shape)
            ref = fw.solve(p, executor="sequential").table
            res = fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=4, dataflow=True),
            )
            assert np.array_equal(ref, res.table)

    @pytest.mark.parametrize("n,block", [(16, 8), (33, 5), (40, 8)])
    def test_native_inverted_l_both_schedules(self, fw, n, block):
        # Regression: the Γ-wave block schedule carries *intra*-wave tile
        # dependencies once block > 1 fans {NW} into W/N/NW neighbours, and
        # its canonical enumeration walks the column arm bottom-up — the
        # barrier sweep must re-sort row-major (and the dataflow graph must
        # carry the same-wave edges) or tiles read unwritten neighbours.
        p = make_fig8_problem(n)
        opts = ExecOptions(inverted_l_as_horizontal=False, block_size=block)
        ref = fw.solve(p, executor="sequential", options=opts)
        assert ref.pattern is Pattern.INVERTED_L
        barrier = fw.solve(p, executor="cpu-blocked", options=opts)
        dataflow = fw.solve(
            p, executor="cpu-blocked",
            options=opts.replace(dataflow=True, dataflow_workers=4),
        )
        assert dataflow.stats["schedule"] == "dataflow"
        assert np.array_equal(ref.table, barrier.table)
        assert np.array_equal(ref.table, dataflow.table)

    @given(
        mask=st.integers(min_value=1, max_value=15),
        rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=24),
        block=st.integers(min_value=1, max_value=9),
        workers=st.integers(min_value=1, max_value=4),
    )
    @SETTINGS
    def test_property_dataflow_equals_barrier(
        self, mask, rows, cols, block, workers
    ):
        from repro.machine.platform import hetero_high

        fw = Framework(hetero_high())
        p = make_synthetic(ContributingSet.from_mask(mask), rows, cols)
        opts = ExecOptions(block_size=block)
        barrier = fw.solve(p, executor="cpu-blocked", options=opts)
        dataflow = fw.solve(
            p, executor="cpu-blocked",
            options=opts.replace(dataflow=True, dataflow_workers=workers),
        )
        assert np.array_equal(barrier.table, dataflow.table)

    def test_run_dataflow_stats_account_for_every_cell(self, fw):
        p = make_synthetic(ContributingSet.of("W", "NE"), 30, 30)
        grid = grid_for(30, 30, 7, skewed=True)
        graph = graph_for(grid, p.contributing)
        table, aux = p.make_table(), p.make_aux()
        stats = run_dataflow(
            p, Pattern.KNIGHT_MOVE, table, aux, grid, graph, workers=3
        )
        assert isinstance(stats, DataflowStats)
        assert stats.cells == p.total_computed_cells
        assert stats.tiles == graph.num_nodes
        assert stats.workers == 3
        assert 0.0 <= stats.occupancy <= 1.0


# -- worker accounting: pool sizing and terminal-wait bookkeeping -------------


class TestWorkerAccounting:
    """Regressions for the two worker-sizing/accounting bugs.

    * the pool was silently clamped to the tile count, so ``stats.workers``
      lied about the requested pool and occupancy came out flattering;
    * a worker's *terminal* wait (blocking on the queue condition until the
      run drains) was dropped from ``waited``, so ``wait_s`` undercounted
      and occupancy overstated utilization.
    """

    def test_one_tile_graph_reports_requested_pool(self, fw):
        """A 1-tile graph swept by 8 workers: 7 of them only ever wait.

        Pre-fix the pool was clamped to ``min(workers, tiles) == 1`` and
        stats reported perfect occupancy for a run that wasted 7 threads.
        """
        p = make_synthetic(ContributingSet.of("W", "N"), 8, 8)
        grid = grid_for(8, 8, 8, pattern=Pattern.ANTI_DIAGONAL)
        graph = graph_for(grid, p.contributing)
        assert graph.num_nodes == 1
        table, aux = p.make_table(), p.make_aux()
        stats = run_dataflow(
            p, Pattern.ANTI_DIAGONAL, table, aux, grid, graph, workers=8
        )
        assert stats.workers == 8
        assert stats.occupancy < 0.25
        ref = fw.solve(p, executor="sequential").table
        assert np.array_equal(ref, table)

    def test_terminal_wait_lands_in_wait_s(self):
        """Idle workers' drain-wait must be accounted, not dropped.

        One slow tile pins one worker; the other three block on the queue
        condition until the run drains — a *terminal* wait. Pre-fix that
        wait was discarded on the exit path, so ``wait_s`` came out near
        zero; post-fix it dwarfs the single worker's busy time.
        """
        def napping_cell(ctx):
            time.sleep(0.01)
            return np.minimum(ctx.w, ctx.n) + 1

        p = LDDPProblem(
            name="napping-4x4",
            shape=(4, 4),
            contributing=ContributingSet.of("W", "N"),
            cell=napping_cell,
            init=None,
            dtype=np.dtype(np.int64),
            oob_value=0,
        )
        grid = grid_for(4, 4, 4, pattern=Pattern.ANTI_DIAGONAL)
        graph = graph_for(grid, p.contributing)
        assert graph.num_nodes == 1
        table, aux = p.make_table(), p.make_aux()
        stats = run_dataflow(
            p, Pattern.ANTI_DIAGONAL, table, aux, grid, graph, workers=4
        )
        assert stats.workers == 4
        assert stats.busy_s > 0.0
        assert stats.wait_s > stats.busy_s * 0.5


# -- control: cancellation, deadlines, faults ---------------------------------


class TestControl:
    def test_fired_token_aborts(self, fw):
        tok = CancelToken()
        tok.cancel()
        p = make_synthetic(ContributingSet.of("NW"), 24, 24)
        with pytest.raises(SolveCancelled):
            fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=4, dataflow=True,
                                    cancel_token=tok),
            )

    def test_past_deadline_aborts(self, fw):
        p = make_synthetic(ContributingSet.of("NW"), 24, 24)
        with pytest.raises(ServiceTimeout):
            fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=4, dataflow=True,
                                    deadline=time.monotonic() - 1.0),
            )

    def test_mid_run_cancel_aborts_within_one_tile(self, fw):
        """With one worker, at most the in-flight tile finishes after fire."""
        tok = CancelToken()
        fired_at = []
        count = [0]
        block = 6

        def cell(ctx):
            count[0] += ctx.i.shape[0] if hasattr(ctx.i, "shape") else 1
            if not fired_at and count[0] >= 3 * block * block:
                tok.cancel()
                fired_at.append(count[0])
            vals = [v for v in (ctx.w, ctx.nw, ctx.n, ctx.ne) if v is not None]
            out = vals[0]
            for v in vals[1:]:
                out = np.minimum(out, v)
            return out + 1

        from repro import LDDPProblem

        p = LDDPProblem(
            name="cancel-probe", shape=(36, 36),
            contributing=ContributingSet.of("NW", "N"),
            cell=cell, dtype=np.int64, oob_value=0,
        )
        with pytest.raises(SolveCancelled):
            fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=block, dataflow=True,
                                    dataflow_workers=1, cancel_token=tok),
            )
        # after firing, the worker may finish its current tile but must not
        # take another: no more than one tile's worth of extra cells.
        assert count[0] <= fired_at[0] + block * block

    def test_tile_fault_degrades_to_barrier_bit_identically(self, fw):
        p = make_synthetic(ContributingSet.of("NW", "N"), 40, 40)
        ref = fw.solve(p, executor="sequential").table
        before = get_metrics().counter("dataflow.degraded").value
        with inject_faults("dataflow.tile:nth=1"):
            res = fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=8, dataflow=True),
            )
        assert res.stats["degraded"] == "barrier"
        assert res.stats["schedule"] == "barrier"
        assert "InjectedFault" in res.stats["tiers"][0]["reason"]
        assert np.array_equal(ref, res.table)
        assert get_metrics().counter("dataflow.degraded").value == before + 1

    def test_timeout_is_never_degraded(self, fw):
        """Deadline expiry must surface, not silently rerun as barrier."""
        p = make_synthetic(ContributingSet.of("NW", "N"), 24, 24)
        with pytest.raises(ServiceTimeout):
            fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=4, dataflow=True,
                                    deadline=time.monotonic() - 1.0),
            )

    def test_persistent_user_error_propagates(self, fw):
        """A cell function that always fails surfaces (no hang, no swallow):
        the dataflow pool drains, the barrier rerun hits it too, it raises."""

        def broken(ctx):
            raise RuntimeError("boom")

        from repro import LDDPProblem

        p = LDDPProblem(
            name="broken", shape=(12, 12),
            contributing=ContributingSet.of("NW"),
            cell=broken, dtype=np.int64, oob_value=0,
        )
        with pytest.raises(RuntimeError, match="boom"):
            fw.solve(
                p, executor="cpu-blocked",
                options=ExecOptions(block_size=4, dataflow=True),
            )


# -- timing model --------------------------------------------------------------


class TestTimingModel:
    @pytest.mark.parametrize("dataflow", [False, True])
    @pytest.mark.parametrize("mask,shape", [
        (6, (48, 40)),   # NW+N horizontal
        (15, (40, 48)),  # full set, knight-move (skewed)
        (4, (32, 32)),   # NW inverted-L
    ])
    def test_fast_blocked_matches_executor_estimate(
        self, fw, dataflow, mask, shape
    ):
        p = make_synthetic(ContributingSet.from_mask(mask), *shape)
        opts = ExecOptions(block_size=8, dataflow=dataflow)
        est = fw.estimate(p, executor="cpu-blocked", options=opts)
        fast = blocked_makespan(p, fw.platform, opts)
        assert est.simulated_time == fast  # exact, not approximate

    def test_fast_blocked_native_inverted_l(self, fw):
        p = make_fig8_problem(96, materialize=False)
        opts = ExecOptions(inverted_l_as_horizontal=False, block_size=8)
        est = fw.estimate(p, executor="cpu-blocked", options=opts)
        assert blocked_makespan(p, fw.platform, opts) == est.simulated_time

    def test_des_predicts_dataflow_reduction_on_ramp_heavy(self, fw):
        """The tentpole claim: both ramp-heavy patterns get faster."""
        invl = make_fig8_problem(256, materialize=False)
        o = ExecOptions(inverted_l_as_horizontal=False, block_size=16)
        assert blocked_makespan(invl, fw.platform, o) > \
            blocked_makespan(invl, fw.platform, o.replace(dataflow=True))
        knight = make_synthetic(ContributingSet.of("W", "NE"), 256, 256)
        o2 = ExecOptions(block_size=16)
        assert blocked_makespan(knight, fw.platform, o2) > \
            blocked_makespan(knight, fw.platform, o2.replace(dataflow=True))

    def test_dataflow_timeline_validates(self, fw):
        p = make_synthetic(ContributingSet.of("W", "NE"), 40, 40)
        res = fw.solve(
            p, executor="cpu-blocked",
            options=ExecOptions(block_size=8, dataflow=True,
                                validate_timeline=True),
        )
        assert res.timeline is not None
        res.timeline.validate()
        assert all(r.resource.startswith("cpu-w") for r in res.timeline)
        assert res.stats["model_workers"] == fw.platform.cpu.cores

    def test_schedule_tiles_respects_deps_and_workers(self):
        # a diamond: 0 -> {1, 2} -> 3
        import numpy as np

        indptr = np.array([0, 2, 3, 4, 4])
        succ = np.array([1, 2, 3, 3])
        pred_indptr = np.array([0, 0, 1, 2, 4])
        pred = np.array([0, 0, 1, 2])
        indeg = np.array([0, 1, 1, 2])
        sched = schedule_tiles(
            np.array([1.0, 2.0, 2.0, 1.0]),
            succ_indptr=indptr, succ_indices=succ,
            pred_indptr=pred_indptr, pred_indices=pred,
            indegree=indeg, workers=2,
        )
        assert sched.makespan == pytest.approx(4.0)
        assert sched.starts[3] >= max(sched.ends[1], sched.ends[2])

    def test_schedule_tiles_detects_cycles(self):
        import numpy as np

        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            schedule_tiles(
                np.array([1.0, 1.0]),
                succ_indptr=np.array([0, 1, 2]),
                succ_indices=np.array([1, 0]),
                pred_indptr=np.array([0, 1, 2]),
                pred_indices=np.array([1, 0]),
                indegree=np.array([1, 1]),
                workers=1,
            )

    def test_dequeue_us_validation(self):
        from repro.errors import PlatformError
        from repro.machine.cpu import CPUModel

        with pytest.raises(PlatformError):
            CPUModel(name="x", cores=1, threads=1, freq_ghz=1.0, cell_ns=1.0,
                     dequeue_us=-1.0)
        cpu = CPUModel(name="x", cores=2, threads=4, freq_ghz=1.0,
                       cell_ns=10.0, dequeue_us=2.0)
        assert cpu.tile_time(0) == 0.0
        assert cpu.tile_time(100) == pytest.approx(
            2e-6 + cpu.sequential_time(100)
        )


# -- serve-layer pricing -------------------------------------------------------


class TestPricing:
    def test_pricer_routes_blocked_executor(self, fw):
        from repro.slo.pricing import Pricer

        pricer = Pricer(fw)
        p = make_synthetic(ContributingSet.of("W", "NE"), 64, 64)
        blocked = pricer.units(p, executor="cpu-blocked")
        hetero = pricer.units(p, executor="hetero")
        assert blocked == pytest.approx(
            blocked_makespan(p, fw.platform, fw.options)
        )
        assert hetero == pytest.approx(
            hetero_timeline(p, fw.platform, None, fw.options)[0].makespan
        )
        assert blocked != hetero

    def test_pricer_prices_dataflow_mode(self, fw):
        from repro.slo.pricing import Pricer

        pricer = Pricer(fw)
        p = make_synthetic(ContributingSet.of("W", "NE"), 64, 64)
        opts = ExecOptions(block_size=8, dataflow=True)
        priced = pricer.units(p, options=opts, executor="cpu-blocked")
        assert priced == pytest.approx(
            blocked_makespan(p, fw.platform, opts)
        )

    @pytest.mark.parametrize("executor,options", [
        ("hetero", ExecOptions()),
        ("cpu-blocked", ExecOptions(block_size=8)),
        ("cpu-blocked", ExecOptions(block_size=8, dataflow=True)),
    ], ids=["hetero", "blocked-barrier", "blocked-dataflow"])
    def test_pricer_units_equal_estimate(self, fw, executor, options):
        """A request is priced with exactly the number its run reports."""
        from repro.slo.pricing import Pricer

        p = make_synthetic(ContributingSet.of("W", "NE"), 64, 64)
        units = Pricer(fw).units(p, options=options, executor=executor)
        est = fw.estimate(p, executor=executor, options=options)
        assert units == est.simulated_time

    def test_pricing_and_tuning_record_no_exec_metrics(self, fw):
        """Only solves and estimates count ``exec.*``; the timing functions
        that pricing and tuning call record none."""
        from repro.obs import MetricsRegistry, set_metrics
        from repro.slo.pricing import Pricer

        p = make_synthetic(ContributingSet.of("W", "NE"), 64, 64)
        previous = set_metrics(MetricsRegistry())
        try:
            pricer = Pricer(fw)
            pricer.units(p, executor="hetero")
            pricer.units(p, executor="cpu-blocked")
            fw.tune(p, points=3)
            names = get_metrics().names()
        finally:
            set_metrics(previous)
        assert not [n for n in names if n.startswith("exec.")]

    def test_options_cache_key_distinguishes_dataflow(self):
        a = ExecOptions(dataflow=True)
        b = ExecOptions(dataflow=False)
        assert repr(a) != repr(b)
        # worker count is host tuning, not semantics: same key
        assert repr(ExecOptions(dataflow=True, dataflow_workers=2)) == repr(a)

    def test_service_prices_blocked_requests_via_blocked_model(self, fw):
        from repro.serve import ServiceConfig, SolveRequest, SolveService
        from repro.slo import SLOPolicy

        p = make_synthetic(ContributingSet.of("NW", "N"), 32, 32)
        config = ServiceConfig(
            workers=1, slo=SLOPolicy(admission=True, max_workers=1)
        )
        service = SolveService(fw.platform, config=config)
        try:
            pending = service.submit(SolveRequest(
                problem=p, executor="cpu-blocked", timeout=30.0,
            ))
            res = pending.result(timeout=30.0)
            assert res.executor == "cpu-blocked"
        finally:
            service.close()


# -- concurrency smoke ---------------------------------------------------------


class TestConcurrency:
    def test_many_workers_small_grid(self, fw):
        """More workers than tiles must not hang or double-evaluate."""
        p = make_synthetic(ContributingSet.of("NW", "N"), 10, 10)
        res = fw.solve(
            p, executor="cpu-blocked",
            options=ExecOptions(block_size=8, dataflow=True,
                                dataflow_workers=16),
        )
        ref = fw.solve(p, executor="sequential").table
        assert np.array_equal(ref, res.table)

    def test_concurrent_solves_share_caches(self, fw):
        p = make_synthetic(ContributingSet.of("W", "NE"), 24, 24)
        ref = fw.solve(p, executor="sequential").table
        errors = []

        def solo():
            try:
                r = fw.solve(
                    p, executor="cpu-blocked",
                    options=ExecOptions(block_size=4, dataflow=True,
                                        dataflow_workers=2),
                )
                if not np.array_equal(ref, r.table):
                    errors.append("mismatch")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=solo) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_metrics_emitted(self, fw):
        metrics = get_metrics()
        runs_before = metrics.counter("dataflow.runs").value
        p = make_synthetic(ContributingSet.of("NW", "N"), 24, 24)
        fw.solve(
            p, executor="cpu-blocked",
            options=ExecOptions(block_size=4, dataflow=True),
        )
        assert metrics.counter("dataflow.runs").value == runs_before + 1
        assert metrics.histogram("dataflow.queue.depth").count > 0
        assert metrics.histogram("dataflow.worker.occupancy").count > 0

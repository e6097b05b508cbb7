"""Delta tier: keys, diffs, cones, patches, cache index, serve wiring.

The load-bearing guarantees:

* a delta-patched table is **bit-identical** to a fresh solve of the edited
  instance, for every pattern and any number of edited payload cells — the
  replay funnels through the same ``evaluate_span`` dispatcher as every
  executor;
* the recompute cost is accounted exactly: cells replayed == cone volume,
  and an oversized cone degrades (``DeltaUnsupported``) instead of sweeping
  the table;
* ``payload_locality`` is a verified declaration: honest declarations make
  the probe edit-sized, lying ones are caught by the seeded spot-check and
  degrade, undeclared entries fall back to the sound global probe;
* the serve layer turns exact-miss/near-match traffic into patches
  (``delta.solved``) and degrades bit-identically with a ``stats["tiers"]``
  entry on any failure, including an injected ``delta.patch`` fault.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContributingSet, ExecOptions, Framework, LDDPProblem
from repro.delta import (
    candidate_mask,
    delta_applicable,
    delta_key,
    delta_makespan,
    delta_patch,
    forward_offsets,
    materialize_cone,
    payload_diff,
    probe_seeds,
    verify_locality,
)
from repro.errors import DeltaUnsupported, InjectedFault, ProblemSpecError
from repro.faults import inject_faults
from repro.machine.platform import hetero_high
from repro.obs import get_metrics
from repro.problems.checkerboard import make_checkerboard
from repro.problems.levenshtein import make_levenshtein
from repro.problems.needleman_wunsch import make_needleman_wunsch
from repro.serve import ResultCache, ServiceConfig, SolveRequest, SolveService

SETTINGS = settings(max_examples=25, deadline=None)

#: Module-level framework: hypothesis reruns examples many times per test,
#: and function-scoped fixtures don't mix with ``@given``.
FRAMEWORK = Framework(hetero_high())

DELTA_OPTS = ExecOptions(delta=True, delta_max_cone=1.0)


def _grid_cell(ctx):
    vals = [v for v in (ctx.w, ctx.nw, ctx.n, ctx.ne) if v is not None]
    out = vals[0]
    for v in vals[1:]:
        out = np.minimum(out, v)
    return out + ctx.payload["grid"][ctx.i, ctx.j]


def make_grid_problem(contributing: ContributingSet, n: int = 24,
                      seed: int = 0) -> LDDPProblem:
    """``f = min(contributing) + grid[i, j]`` — payload-bearing, any pattern."""
    rng = np.random.default_rng(seed)
    return LDDPProblem(
        name=f"grid-{contributing.mask:02d}-{n}",
        shape=(n, n),
        contributing=contributing,
        cell=_grid_cell,
        dtype=np.dtype(np.int64),
        payload={"grid": rng.integers(0, 50, size=(n, n))},
        oob_value=0,
        payload_locality={"grid": ("cell", 0, 0)},
    )


def _edit_entry(problem: LDDPProblem, name: str, flat_indices) -> LDDPProblem:
    payload = dict(problem.payload)
    arr = payload[name].copy()
    arr.ravel()[np.asarray(flat_indices)] += 1
    payload[name] = arr
    return replace(problem, payload=payload)


def _patched_vs_fresh(base, edited):
    base_result = FRAMEWORK.solve(base, executor="cpu")
    fresh = FRAMEWORK.solve(edited, executor="cpu",
                            options=ExecOptions(delta=False))
    patched = delta_patch(edited, base.payload, base_result,
                          platform=hetero_high(), options=DELTA_OPTS,
                          executor="cpu")
    return patched, fresh


# -- the bit-identity property ------------------------------------------------


class TestBitIdentity:
    """Patched table == fresh solve, across patterns and edit shapes."""

    @SETTINGS
    @given(
        pattern=st.sampled_from(["anti-diagonal", "horizontal",
                                 "inverted-L", "vertical"]),
        data=st.data(),
    )
    def test_random_k_cell_edit_patches_bit_identically(self, pattern, data):
        cs = {
            "anti-diagonal": ContributingSet.of("W", "NW", "N"),
            "horizontal": ContributingSet.of("NW", "N", "NE"),
            "inverted-L": ContributingSet.of("NW"),
            "vertical": ContributingSet.of("W", "NW"),
        }[pattern]
        base = make_grid_problem(cs, n=24, seed=data.draw(
            st.integers(0, 2**16), label="seed"))
        assert base.pattern.value == pattern
        k = data.draw(st.integers(1, 6), label="k")
        cells = data.draw(
            st.lists(st.integers(0, 24 * 24 - 1), min_size=k, max_size=k,
                     unique=True),
            label="cells",
        )
        edited = _edit_entry(base, "grid", cells)
        patched, fresh = _patched_vs_fresh(base, edited)
        assert patched.stats["solver"] == "delta"
        assert patched.stats["delta_probe"] == "locality"
        assert np.array_equal(patched.table, fresh.table)

    @SETTINGS
    @given(index=st.integers(0, 127), name=st.sampled_from(["a", "b"]))
    def test_levenshtein_char_edit(self, index, name):
        base = make_levenshtein(128)
        edited = _edit_entry(base, name, [index])
        patched, fresh = _patched_vs_fresh(base, edited)
        assert np.array_equal(patched.table, fresh.table)

    def test_boundary_edit_seeds_through_init(self):
        # Checkerboard row 0 of the cost board lives in the fixed boundary;
        # make it the new minimum so the change definitely propagates.
        base = make_checkerboard(48)
        payload = dict(base.payload)
        cost = payload["cost"].copy()
        cost[0, 10] -= 100.0
        payload["cost"] = cost
        edited = replace(base, payload=payload)
        patched, fresh = _patched_vs_fresh(base, edited)
        assert not np.array_equal(FRAMEWORK.solve(base, executor="cpu").table,
                                  fresh.table)
        assert np.array_equal(patched.table, fresh.table)

    def test_zero_edit_returns_base_table(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        clone = replace(base, name="same-bytes-different-name")
        patched = delta_patch(clone, base.payload, base_result,
                              platform=hetero_high(), options=DELTA_OPTS)
        assert patched.stats["delta_cone_cells"] == 0
        assert patched.stats["delta_probe"] == "none"
        assert np.array_equal(patched.table, base_result.table)

    def test_patch_never_mutates_the_base(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        snapshot = base_result.table.copy()
        edited = _edit_entry(base, "a", [31])
        delta_patch(edited, base.payload, base_result,
                    platform=hetero_high(), options=DELTA_OPTS)
        assert np.array_equal(base_result.table, snapshot)


# -- cone geometry and accounting ---------------------------------------------


class TestCone:
    def test_forward_offsets_negate_contributing(self):
        cs = ContributingSet.of("W", "NW", "N", "NE")
        assert set(forward_offsets(cs)) == {(0, 1), (1, 1), (1, 0), (1, -1)}

    def test_recomputed_cells_equal_cone_volume(self):
        base = make_levenshtein(96)
        edited = _edit_entry(base, "a", [40])
        patched, _ = _patched_vs_fresh(base, edited)
        s = patched.stats
        assert s["delta_recomputed_cells"] == s["delta_cone_cells"] > 0
        assert s["delta_cone_fraction"] == pytest.approx(
            s["delta_cone_cells"] / base.total_computed_cells
        )

    def test_suffix_cone_smaller_than_interior_cone(self):
        base = make_levenshtein(128)
        suffix, _ = _patched_vs_fresh(base, _edit_entry(base, "a", [127]))
        interior, _ = _patched_vs_fresh(base, _edit_entry(base, "a", [64]))
        assert (0 < suffix.stats["delta_cone_cells"]
                < interior.stats["delta_cone_cells"])

    def test_single_seed_horizontal_cone_is_a_widening_triangle(self):
        cs = ContributingSet.of("NW", "N", "NE")
        problem = make_grid_problem(cs, n=8)
        schedule = problem.schedule()
        si = np.array([2], dtype=np.int64)
        sj = np.array([4], dtype=np.int64)
        spans, waves, cone = materialize_cone(
            schedule, cs, si, sj, problem.computed_shape
        )
        # rows 2..7, widening by one column on each side, clipped at 8
        assert waves == 6
        assert cone == sum(min(8, 1 + 2 * d) for d in range(6))
        assert spans[0] == (2, 4, 5)

    def test_cone_cap_raises_delta_unsupported(self):
        cs = ContributingSet.of("NW", "N", "NE")
        problem = make_grid_problem(cs, n=16)
        schedule = problem.schedule()
        with pytest.raises(DeltaUnsupported, match="cone-too-large"):
            materialize_cone(
                schedule, cs,
                np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
                problem.computed_shape, max_cells=3,
            )

    def test_oversized_cone_degrades_through_the_patch(self):
        base = make_levenshtein(64)
        edited = _edit_entry(base, "a", [0])  # head edit: cone ~ whole table
        base_result = FRAMEWORK.solve(base, executor="cpu")
        with pytest.raises(DeltaUnsupported, match="cone-too-large"):
            delta_patch(edited, base.payload, base_result,
                        platform=hetero_high(),
                        options=ExecOptions(delta=True, delta_max_cone=0.01))


# -- the payload diff ---------------------------------------------------------


class TestPayloadDiff:
    def test_identical_payloads_diff_empty(self):
        p = make_levenshtein(16)
        d = payload_diff(p.payload, dict(p.payload))
        assert d["edited_entries"] == d["edited_elements"] == 0
        assert d["changed"] == {}

    def test_changed_indices_are_exact(self):
        p = make_levenshtein(16)
        edited = _edit_entry(p, "a", [3, 7])
        d = payload_diff(p.payload, edited.payload)
        assert d["edited_entries"] == 1
        assert d["edited_elements"] == 2
        assert sorted(d["changed"]["a"].tolist()) == [3, 7]

    def test_nan_to_nan_is_not_an_edit(self):
        a = {"x": np.array([np.nan, 1.0])}
        b = {"x": np.array([np.nan, 1.0])}
        assert payload_diff(a, b)["edited_elements"] == 0

    @pytest.mark.parametrize("other, msg", [
        ({"x": np.zeros(3), "y": 1}, "entry names"),
        ({"x": np.zeros(4)}, "shape moved"),
        ({"x": np.zeros(3, dtype=np.float32)}, "dtype moved"),
        ({"x": 5}, "ndarray vs non-ndarray"),
    ])
    def test_structural_drift_degrades(self, other, msg):
        base = {"x": np.zeros(3)}
        with pytest.raises(DeltaUnsupported, match=msg):
            payload_diff(base, other)

    def test_non_array_edit_counts_one_with_no_indices(self):
        d = payload_diff({"k": 1}, {"k": 2})
        assert d["edited_elements"] == 1
        assert d["changed"]["k"] is None


# -- payload locality ---------------------------------------------------------


class TestPayloadLocality:
    def test_declared_problems_probe_edit_sized(self):
        base = make_levenshtein(256)
        edited = _edit_entry(base, "a", [200])
        patched, _ = _patched_vs_fresh(base, edited)
        assert patched.stats["delta_probe"] == "locality"
        # one table row of candidates plus the spot-check sample
        assert patched.stats["delta_probed_cells"] < 2 * 256 + 256

    def test_undeclared_entry_falls_back_to_global_probe(self):
        base = make_grid_problem(ContributingSet.of("NW", "N"), n=24)
        base = replace(base, payload_locality=None)
        edited = _edit_entry(base, "grid", [100])
        patched, fresh = _patched_vs_fresh(base, edited)
        assert patched.stats["delta_probe"] == "global"
        assert patched.stats["delta_probed_cells"] == base.total_computed_cells
        assert np.array_equal(patched.table, fresh.table)

    def test_row_and_col_specs_map_candidates(self):
        p = make_levenshtein(16)
        cand = candidate_mask(p, {"a": np.array([4]), "b": np.array([9])})
        assert cand is not None
        mask, gi, gj = cand
        assert mask[5, :].all() and mask[:, 10].all()
        assert mask.sum() == 17 + 17 - 1
        assert len(gi) == len(gj) == 2 * 17

    def test_global_spec_and_non_array_edits_disable_mapping(self):
        p = make_levenshtein(16)
        assert candidate_mask(p, {"a": None}) is None
        q = replace(p, payload_locality={"a": "global", "b": ("col", 1)})
        assert candidate_mask(q, {"a": np.array([1])}) is None

    def test_dimension_mismatch_disables_mapping(self):
        p = make_checkerboard(8)
        q = replace(p, payload_locality={"cost": ("row", 0)})  # 2-D entry
        assert candidate_mask(q, {"cost": np.array([3])}) is None

    def test_lying_declaration_is_caught_and_degrades(self):
        base = make_checkerboard(64)
        lie = replace(base, payload_locality={"cost": ("cell", 30, 0)})
        base_result = FRAMEWORK.solve(lie, executor="cpu")
        payload = dict(lie.payload)
        payload["cost"] = payload["cost"] + 1.0  # dense edit: sample must hit
        edited = replace(lie, payload=payload)
        with pytest.raises(DeltaUnsupported, match="locality-violation"):
            delta_patch(edited, lie.payload, base_result,
                        platform=hetero_high(), options=DELTA_OPTS)

    def test_verify_locality_passes_on_honest_probe(self):
        base = make_levenshtein(32)
        table = FRAMEWORK.solve(base, executor="cpu").table
        checked = verify_locality(
            base, table, np.zeros(base.shape, dtype=bool), samples=64
        )
        assert checked == 64

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ProblemSpecError, match="payload_locality"):
            replace(make_levenshtein(8),
                    payload_locality={"a": ("diagonal", 1)})
        with pytest.raises(ProblemSpecError, match="payload_locality"):
            replace(make_levenshtein(8),
                    payload_locality={"a": ("row", 1, 2)})


# -- the near-match key -------------------------------------------------------


class TestDeltaKey:
    def test_payload_bytes_and_executor_do_not_key(self):
        a = make_levenshtein(32, seed=0)
        b = make_levenshtein(32, seed=1)
        assert delta_key(a) == delta_key(b)

    def test_geometry_options_and_locality_key(self):
        base = make_levenshtein(32)
        assert delta_key(base) != delta_key(make_levenshtein(33))
        assert delta_key(base) != delta_key(
            base, options=ExecOptions(scan=False))
        relabeled = replace(base, payload_locality={"a": ("row", 2)})
        assert delta_key(base) != delta_key(relabeled)

    def test_applicability_gates(self):
        assert delta_applicable(make_levenshtein(16)) is None
        aux = replace(make_levenshtein(16), aux_specs={"p": np.dtype(np.int8)})
        assert delta_applicable(aux) == "aux-outputs"
        assert "delta_max_cone" in delta_applicable(
            make_levenshtein(16), ExecOptions(delta_max_cone=0.0))


# -- chaos: the delta.patch fault site ----------------------------------------


class TestFaultSite:
    def test_injected_fault_raises_before_any_work(self):
        base = make_levenshtein(32)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        edited = _edit_entry(base, "a", [31])
        with inject_faults("delta.patch:nth=1"):
            with pytest.raises(InjectedFault):
                delta_patch(edited, base.payload, base_result,
                            platform=hetero_high(), options=DELTA_OPTS)

    def test_service_degrades_bit_identically_with_reason(self):
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        fresh = FRAMEWORK.solve(edited, executor="cpu").table
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with inject_faults("delta.patch:nth=1"):
            with SolveService(hetero_high(), config=cfg) as svc:
                svc.submit(SolveRequest(base)).result()
                degraded = svc.submit(SolveRequest(edited)).result()
        assert degraded.stats.get("degraded") == "full-solve"
        assert "InjectedFault" in degraded.stats["tiers"][0]["reason"]
        assert np.array_equal(degraded.table, fresh)


# -- cache base index and serve wiring ----------------------------------------


class TestCacheBaseIndex:
    def test_put_with_base_key_registers_and_counts_candidates(self):
        base = make_levenshtein(24)
        result = FRAMEWORK.solve(base, executor="cpu")
        cache = ResultCache(capacity=4)
        cache.put("exact", result, base_key="near", payload=base.payload)
        assert cache.has_base("near")
        snapshot, frozen = cache.get_base("near")
        assert snapshot is base.payload
        assert not frozen.table.flags.writeable
        cache.note_delta_hit()
        stats = cache.stats()
        assert stats["base_entries"] == 1
        assert stats["delta_candidates"] == 1
        assert stats["delta_hits"] == 1

    def test_base_index_is_lru_bounded(self):
        result = FRAMEWORK.solve(make_levenshtein(16), executor="cpu")
        cache = ResultCache(capacity=2)
        for i in range(4):
            cache.put(f"k{i}", result, base_key=f"b{i}", payload={})
        assert not cache.has_base("b0")
        assert cache.has_base("b3")

    def test_service_serves_near_duplicates_by_patching(self):
        metrics = get_metrics()
        before = metrics.counter("delta.solved").value
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        fresh = FRAMEWORK.solve(edited, executor="cpu").table
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            svc.submit(SolveRequest(base)).result()
            served = svc.submit(SolveRequest(edited)).result()
            stats = svc.cache.stats()
        assert served.stats["solver"] == "delta"
        assert np.array_equal(served.table, fresh)
        assert metrics.counter("delta.solved").value == before + 1
        assert stats["delta_candidates"] >= 1
        assert stats["delta_hits"] >= 1

    def test_scalar_gap_edit_matches_a_fresh_solve(self):
        # The gap lives in the payload and seeds the boundary through init:
        # a served edit of it — patched or degraded — equals a fresh solve
        # of a problem built with that gap.
        base = make_needleman_wunsch(32)
        edited = replace(base, payload=dict(base.payload, gap=-3))
        fresh = FRAMEWORK.solve(make_needleman_wunsch(32, gap=-3),
                                executor="cpu").table
        assert not np.array_equal(
            FRAMEWORK.solve(base, executor="cpu").table, fresh)
        cfg = ServiceConfig(workers=1, options=ExecOptions(delta=True))
        with SolveService(hetero_high(), config=cfg) as svc:
            svc.submit(SolveRequest(base)).result()
            served = svc.submit(SolveRequest(edited)).result()
        assert (served.stats.get("solver") == "delta"
                or served.stats.get("degraded") == "full-solve")
        assert served.table.tobytes() == fresh.tobytes()

    def test_delta_off_by_default(self):
        base = make_levenshtein(48)
        edited = _edit_entry(base, "a", [47])
        with SolveService(hetero_high(),
                          config=ServiceConfig(workers=1)) as svc:
            svc.submit(SolveRequest(base)).result()
            served = svc.submit(SolveRequest(edited)).result()
        assert served.stats.get("solver") != "delta"


# -- pricing ------------------------------------------------------------------


class TestPricing:
    def test_makespan_scales_with_cone_fraction(self):
        p = make_levenshtein(128)
        small = delta_makespan(p, hetero_high(), cone_fraction=0.05)
        large = delta_makespan(p, hetero_high(), cone_fraction=0.8)
        assert small < large

    def test_locality_declaration_prices_a_cheaper_probe(self):
        p = make_levenshtein(128)
        undeclared = replace(p, payload_locality=None)
        assert delta_makespan(p, hetero_high()) < delta_makespan(
            undeclared, hetero_high())


# -- the global probe stays sound ---------------------------------------------


class TestGlobalProbe:
    def test_probe_marks_exactly_the_changed_cells(self):
        base = make_checkerboard(16)
        base_result = FRAMEWORK.solve(base, executor="cpu")
        payload = dict(base.payload)
        cost = payload["cost"].copy()
        cost[8, 3] -= 100.0  # guaranteed new minimum at exactly one cell
        payload["cost"] = cost
        edited = replace(base, payload=payload)
        mask = probe_seeds(edited, base_result.table.copy())
        si, sj = np.nonzero(mask)
        assert (si.tolist(), sj.tolist()) == ([7], [3])  # local coords (fr=1)

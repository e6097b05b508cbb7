"""The shared degrade path of :mod:`repro.tiers` and its cross-tier trail.

Every tier that can fall back (scan, device, dataflow, batch, delta) runs
through :func:`repro.tiers.attempt`; these tests pin the contract itself
and that degrades in *different* tiers of one solve all reach the result,
in ladder order, with the table still bit-identical to the oracle.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import ExecOptions, Framework
from repro.errors import InjectedFault, PlatformError, ServiceTimeout, SolveCancelled
from repro.exec.base import SolveResult
from repro.faults import inject_faults
from repro.machine.platform import hetero_high
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.problems import make_levenshtein, make_prefix_sum
from repro.tiers import FALLBACKS, annotate, attempt
from repro.types import Pattern


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


def _result(**stats):
    return SolveResult("p", "cpu", Pattern.ANTI_DIAGONAL, 0.0, stats=stats)


class TestAttempt:
    def test_success_returns_the_value_and_leaves_no_trace(self):
        trail: list = []
        assert attempt(trail, "scan", lambda: 7, executor="cpu", problem="p") == 7
        assert trail == []
        assert get_metrics().counter("scan.degraded").value == 0

    def test_failure_counts_and_records(self):
        def boom():
            raise ValueError("nope")

        trail: list = []
        assert attempt(trail, "dataflow", boom, executor="cpu-blocked",
                       problem="p") is None
        [entry] = trail
        assert entry["tier"] == "dataflow"
        assert entry["outcome"] == "degraded"
        assert entry["reason"] == "ValueError: nope"
        assert entry["wall_ns"] >= 0
        metrics = get_metrics()
        assert metrics.counter("dataflow.degraded").value == 1
        assert metrics.counter("exec.cpu-blocked.degraded").value == 1

    @pytest.mark.parametrize("exc", [ServiceTimeout("t"), SolveCancelled("c")])
    def test_control_aborts_are_never_degraded(self, exc):
        def abort():
            raise exc

        trail: list = []
        with pytest.raises(type(exc)):
            attempt(trail, "scan", abort, executor="cpu", problem="p")
        assert trail == []

    def test_failures_outside_catch_propagate(self):
        def bug():
            raise KeyError("k")

        trail: list = []
        with pytest.raises(KeyError):
            attempt(trail, "device", bug, executor="hetero", problem="p",
                    catch=(PlatformError, InjectedFault))
        assert trail == []


class TestAnnotate:
    def test_empty_trail_is_a_no_op(self):
        result = _result(solver="scan")
        assert annotate(result, []).stats == {"solver": "scan"}

    def test_merges_in_ladder_order(self):
        inner = [{"tier": "delta", "outcome": "degraded", "reason": "d",
                  "wall_ns": 1}]
        shared = list(inner)
        result = annotate(_result(tiers=shared), [
            {"tier": "scan", "outcome": "degraded", "reason": "s",
             "wall_ns": 2},
        ])
        assert [e["tier"] for e in result.stats["tiers"]] == ["scan", "delta"]
        assert result.stats["degraded"] == "wavefront,full-solve"
        assert shared == inner  # the old list is replaced, not mutated

    def test_every_tier_has_a_fallback_label(self):
        assert list(FALLBACKS) == ["scan", "device", "dataflow", "batch",
                                   "delta"]


# -- cross-tier: two faulted sites in one solve -------------------------------

_SITE_TIER = {
    "scan.solve": "scan",
    "machine.gpu": "device",
    "dataflow.tile": "dataflow",
}
_RUNS = {
    "hetero": ("hetero", ExecOptions(), {"scan.solve", "machine.gpu"}),
    "cpu-blocked-dataflow": (
        "cpu-blocked", ExecOptions(block_size=8, dataflow=True),
        {"scan.solve", "dataflow.tile"},
    ),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
@pytest.mark.parametrize(
    "sites", list(itertools.combinations(sorted(_SITE_TIER), 2)),
    ids="+".join,
)
def test_cross_tier_degrades_reach_the_result_in_ladder_order(sites, run):
    """Each faulted tier the solve reaches is on the trail; the table never
    moves.

    ``hetero`` reaches the scan and device tiers, blocked dataflow the scan
    and dataflow tiers — but only once the scan tier has failed, since a
    working scan answers the linear ``prefix_sum`` first. A pair of sites
    both reachable by the executor must degrade twice and name both
    fallbacks.
    """
    executor, options, reachable = _RUNS[run]
    problem = make_prefix_sum(40)
    oracle = Framework(hetero_high()).solve(problem, executor="sequential")
    with inject_faults(*(f"{site}:nth=1" for site in sites)):
        result = Framework(hetero_high(), options).solve(
            problem, executor=executor
        )
    assert np.array_equal(result.table, oracle.table)
    faulted = {_SITE_TIER[s] for s in sites if s in reachable}
    expected = [t for t in FALLBACKS if t in faulted] if "scan" in faulted else []
    tiers = result.stats.get("tiers", [])
    assert [e["tier"] for e in tiers] == expected
    assert all("InjectedFault" in e["reason"] for e in tiers)
    assert result.stats.get("degraded") == (
        ",".join(FALLBACKS[t] for t in expected) or None
    )
    if set(sites) <= reachable:
        assert len(result.stats["degraded"].split(",")) == 2


def test_batch_degrade_reaches_every_member_after_its_own_tiers():
    """A failed group stamps ``per-instance`` on each solo result, after the
    device degrade that member's own solve recorded."""
    problems = [make_levenshtein(20, seed=s) for s in range(3)]
    fw = Framework(hetero_high())
    oracle = [fw.solve(p, executor="sequential").table for p in problems]
    with inject_faults("batch.execute:nth=1", "machine.gpu:rate=1.0"):
        results = fw.solve_many(problems)
    for expect, result in zip(oracle, results):
        assert np.array_equal(result.table, expect)
        assert [e["tier"] for e in result.stats["tiers"]] == ["device", "batch"]
        assert result.stats["degraded"] == "cpu-only,per-instance"
    assert get_metrics().counter("batch.degraded").value == 1

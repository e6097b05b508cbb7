"""Tests for the SLO layer: admission, pricing, quotas, autoscaling, EDF.

Covers the policy brain of :mod:`repro.slo` plus its integration into
:class:`repro.serve.SolveService` — including the two properties the
admission controller guarantees structurally (monotone in capacity,
enqueue-only rejection) and the autoscaler's thread races (scale-down
mid-solve, scale-up under a latency storm, cancel delivery to a worker
spawned after the request was enqueued).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContributingSet, Framework, LDDPProblem
from repro.errors import (
    AdmissionRejected,
    QuotaExceeded,
    ServiceOverloaded,
    SolveCancelled,
)
from repro.faults import inject_faults
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.serve import ServiceConfig, SolveRequest, SolveService
from repro.serve.request import request_key
from repro.slo import (
    AdmissionController,
    Autoscaler,
    Pricer,
    QuotaManager,
    SLOPolicy,
    TokenBucket,
)


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate the process-wide registry per test."""
    previous = set_metrics(MetricsRegistry())
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


def make_costs_problem(n: int = 12, seed: int = 0, name: str = "slo-costs") -> LDDPProblem:
    costs = np.random.default_rng(seed).uniform(0.0, 4.0, size=(n, n))

    def init(table, payload):
        table[0, :] = np.arange(table.shape[1])
        table[:, 0] = np.arange(table.shape[0])

    def cell(ctx):
        return np.minimum(ctx.w, ctx.n) + ctx.payload["costs"][ctx.i, ctx.j]

    return LDDPProblem(
        name=name,
        shape=costs.shape,
        contributing=ContributingSet.of("W", "N"),
        cell=cell,
        init=init,
        fixed_rows=1,
        fixed_cols=1,
        payload={"costs": costs},
    )


def make_event_problem(
    event: threading.Event, name: str = "gate", marker=None, order=None
) -> LDDPProblem:
    """A problem whose init blocks on ``event`` (and records ``marker``)."""

    def init(table, payload):
        event.wait(timeout=10.0)
        if order is not None:
            order.append(marker)

    def cell(ctx):
        return ctx.w + 1

    return LDDPProblem(
        name=name,
        shape=(4, 6),
        contributing=ContributingSet.of("W"),
        cell=cell,
        init=init,
    )


# -- policy validation ---------------------------------------------------------


class TestSLOPolicy:
    def test_defaults_valid(self):
        policy = SLOPolicy()
        assert policy.admission and policy.scheduling
        assert policy.quota_for("anyone") is None

    @pytest.mark.parametrize("kwargs", [
        {"min_workers": 0},
        {"min_workers": 3, "max_workers": 2},
        {"safety_factor": 0.0},
        {"dispatch_overhead": -1.0},
        {"coalesce_share": 0.0},
        {"coalesce_share": 1.5},
        {"scale_interval": 0.0},
        {"backlog_per_worker": 0.0},
        {"scale_down_after": 0},
        {"tenant_quotas": {"t": (0.0, 5)}},
        {"default_quota": (5.0, 0)},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SLOPolicy(**kwargs)

    def test_quota_lookup_prefers_tenant_entry(self):
        policy = SLOPolicy(
            default_quota=(10.0, 5), tenant_quotas={"vip": (100.0, 50)}
        )
        assert policy.quota_for("vip") == (100.0, 50)
        assert policy.quota_for("other") == (10.0, 5)


# -- pricing -------------------------------------------------------------------


class TestPricer:
    def test_units_cached_by_batch_key(self, fresh_metrics):
        pricer = Pricer(Framework())
        problem = make_costs_problem(16)
        first = pricer.units(problem, key="k1")
        second = pricer.units(make_costs_problem(16, seed=1), key="k1")
        assert first == second
        assert fresh_metrics.counter("slo.price.computed").value == 1
        assert fresh_metrics.counter("slo.price.cached").value == 1

    def test_cache_evicts_lru(self):
        pricer = Pricer(Framework(), cache_size=2)
        problem = make_costs_problem(16)
        pricer.units(problem, key="a")
        pricer.units(problem, key="b")
        pricer.units(problem, key="c")  # evicts "a"
        metrics = get_metrics()
        before = metrics.counter("slo.price.computed").value
        pricer.units(problem, key="a")
        assert metrics.counter("slo.price.computed").value == before + 1

    def test_calibration_replaces_seed_then_ewma(self):
        pricer = Pricer(Framework(), alpha=0.5)
        seed = pricer.ratio("hetero", True)
        pricer.observe("hetero", True, units=2.0, wall=8.0)  # ratio 4.0
        assert pricer.ratio("hetero", True) == pytest.approx(4.0)
        assert pricer.ratio("hetero", True) != seed
        pricer.observe("hetero", True, units=2.0, wall=4.0)  # observed 2.0
        assert pricer.ratio("hetero", True) == pytest.approx(3.0)
        assert pricer.predict(10.0, "hetero", True) == pytest.approx(30.0)
        assert pricer.calibration() == {"hetero:solve": pytest.approx(3.0)}

    def test_estimate_seeded_cheaper_than_solve(self):
        pricer = Pricer(Framework())
        assert pricer.ratio("hetero", False) < pricer.ratio("hetero", True)

    def test_unpriceable_returns_none(self):
        pricer = Pricer(Framework())

        class Boom:
            name = "boom"

        assert pricer.units(Boom()) is None  # estimator raises -> None


# -- admission decisions -------------------------------------------------------


def make_controller(**policy_kwargs) -> AdmissionController:
    policy_kwargs.setdefault("safety_factor", 1.0)
    policy_kwargs.setdefault("dispatch_overhead", 0.0)
    policy = SLOPolicy(**policy_kwargs)
    pricer = Pricer(Framework())
    pricer.observe("hetero", True, units=1.0, wall=1.0)   # ratio 1
    pricer.observe("hetero", False, units=1.0, wall=0.1)  # ratio 0.1
    pricer.observe("cpu", True, units=1.0, wall=0.5)      # ratio 0.5
    return AdmissionController(policy, pricer)


class TestAdmissionController:
    def test_admits_within_deadline(self):
        ctl = make_controller()
        d = ctl.decide(
            deadline_remaining=5.0, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1,
        )
        assert d.action == "admit"
        assert d.predicted_completion == pytest.approx(1.0)

    def test_no_deadline_and_unpriceable_wave_through(self):
        ctl = make_controller()
        assert ctl.decide(
            deadline_remaining=None, units=1.0, executor="hetero",
            functional=True, backlog_wall=9.0, workers=1,
        ).admitted
        assert ctl.decide(
            deadline_remaining=0.001, units=None, executor="hetero",
            functional=True, backlog_wall=9.0, workers=1,
        ).admitted

    def test_rejects_with_reason(self):
        ctl = make_controller(downgrade=False)
        d = ctl.decide(
            deadline_remaining=0.5, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1,
        )
        assert d.action == "reject" and not d.admitted
        assert "exceeds" in d.reason and "workers" in d.reason

    def test_backlog_counts_against_deadline(self):
        ctl = make_controller(downgrade=False)
        fits = ctl.decide(
            deadline_remaining=1.5, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1,
        )
        squeezed = ctl.decide(
            deadline_remaining=1.5, units=1.0, executor="hetero",
            functional=True, backlog_wall=2.0, workers=1,
        )
        assert fits.admitted and not squeezed.admitted

    def test_executor_downgrade_before_reject(self):
        ctl = make_controller()  # cpu ratio 0.5 < hetero 1.0
        d = ctl.decide(
            deadline_remaining=0.7, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1,
        )
        assert d.action == "downgrade"
        assert d.executor == "cpu" and d.functional is True

    def test_estimate_downgrade_requires_opt_in(self):
        ctl = make_controller(downgrade_executor={})
        locked = ctl.decide(
            deadline_remaining=0.3, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1, downgradable=False,
        )
        opted = ctl.decide(
            deadline_remaining=0.3, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1, downgradable=True,
        )
        assert locked.action == "reject"
        assert opted.action == "downgrade" and opted.functional is False

    def test_dispatch_overhead_fails_submillisecond_deadlines(self):
        ctl = make_controller(dispatch_overhead=0.005, downgrade=False)
        d = ctl.decide(
            deadline_remaining=2e-4, units=1e-6, executor="hetero",
            functional=True, backlog_wall=0.0, workers=4,
        )
        assert d.action == "reject"

    def test_coalesce_share_admits_marginal_work(self):
        ctl = make_controller(coalesce_share=0.5, downgrade=False)
        common = dict(
            deadline_remaining=0.7, units=1.0, executor="hetero",
            functional=True, backlog_wall=0.0, workers=1,
        )
        assert not ctl.decide(coalescible=False, **common).admitted
        assert ctl.decide(coalescible=True, **common).admitted

    @settings(max_examples=60, deadline=None)
    @given(
        deadline=st.floats(1e-4, 10.0),
        units=st.floats(1e-6, 5.0),
        backlog=st.floats(0.0, 20.0),
        workers=st.integers(1, 8),
        more=st.integers(1, 8),
        downgradable=st.booleans(),
    )
    def test_property_monotone_in_capacity(
        self, deadline, units, backlog, workers, more, downgradable
    ):
        """Adding workers can only move a decision toward admission."""
        ctl = make_controller()
        base = dict(
            deadline_remaining=deadline, units=units, executor="hetero",
            functional=True, backlog_wall=backlog, downgradable=downgradable,
        )
        fewer = ctl.decide(workers=workers, **base)
        extra = ctl.decide(workers=workers + more, **base)
        assert extra.tier() >= fewer.tier()

    @settings(max_examples=30, deadline=None)
    @given(
        deadline=st.floats(1e-4, 10.0),
        units=st.floats(1e-6, 5.0),
        backlog=st.floats(0.0, 20.0),
        workers=st.integers(1, 8),
    )
    def test_property_decide_is_pure(self, deadline, units, backlog, workers):
        """Same snapshot in, same decision out — no hidden state."""
        ctl = make_controller()
        kw = dict(
            deadline_remaining=deadline, units=units, executor="hetero",
            functional=True, backlog_wall=backlog, workers=workers,
        )
        assert ctl.decide(**kw) == ctl.decide(**kw)


# -- token buckets and quotas --------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestQuotas:
    def test_bucket_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False
        ]
        clock.now += 1.0  # refills 2 tokens
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_bucket_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.now += 60.0
        assert bucket.available() == pytest.approx(2.0)

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)

    def test_manager_unmetered_tenants_pass(self):
        manager = QuotaManager(SLOPolicy(tenant_quotas={"paid": (1.0, 1)}))
        assert all(manager.admit("free") for _ in range(50))
        snap = manager.snapshot()
        assert snap["free"]["admitted"] == 50
        assert "rate" not in snap["free"]  # no bucket built

    def test_manager_noisy_tenant_cannot_starve_meek(self):
        clock = FakeClock()
        policy = SLOPolicy(tenant_quotas={"noisy": (5.0, 2)})
        manager = QuotaManager(policy, clock=clock)
        noisy = sum(manager.admit("noisy") for _ in range(20))
        meek = sum(manager.admit("meek") for _ in range(20))
        assert noisy == 2      # burst only — the rest rejected
        assert meek == 20      # untouched by the noisy neighbour
        clock.now += 1.0       # refill lets the noisy tenant back in
        assert manager.admit("noisy")
        snap = manager.snapshot()
        assert snap["noisy"]["rejected"] == 18
        assert snap["meek"]["rejected"] == 0


# -- autoscaler decisions ------------------------------------------------------


class TestAutoscalerDecisions:
    def test_scales_up_on_backlog(self):
        scaler = Autoscaler(SLOPolicy(max_workers=8, backlog_per_worker=2.0))
        assert scaler.desired(depth=10, workers=1) == 5
        assert scaler.desired(depth=100, workers=1) == 8  # capped

    def test_holds_within_target(self):
        scaler = Autoscaler(SLOPolicy(max_workers=8, backlog_per_worker=2.0))
        assert scaler.desired(depth=4, workers=2) == 2

    def test_scales_up_on_latency_overshoot(self):
        scaler = Autoscaler(SLOPolicy(max_workers=4, target_latency_ms=50.0))
        assert scaler.desired(depth=1, workers=2, latency_ms=200.0) == 3
        # ...but not when there is nothing to work on.
        assert scaler.desired(depth=0, workers=2, busy=0, latency_ms=200.0) == 2

    def test_scale_down_needs_consecutive_idle(self):
        scaler = Autoscaler(SLOPolicy(min_workers=1, scale_down_after=3))
        assert scaler.desired(depth=0, workers=3) == 3
        assert scaler.desired(depth=0, workers=3) == 3
        assert scaler.desired(depth=0, workers=3) == 2  # third idle tick
        # a busy tick resets the streak
        assert scaler.desired(depth=1, workers=2, busy=1) == 2
        assert scaler.desired(depth=0, workers=2) == 2

    def test_never_below_min_workers(self):
        scaler = Autoscaler(SLOPolicy(min_workers=2, scale_down_after=1))
        assert scaler.desired(depth=0, workers=2) == 2


# -- service integration -------------------------------------------------------


def wait_until(predicate, timeout: float = 5.0, step: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


def strict_policy(**kwargs) -> SLOPolicy:
    """A policy whose pricer-facing knobs are deterministic for tests."""
    kwargs.setdefault("safety_factor", 1.0)
    kwargs.setdefault("dispatch_overhead", 0.0)
    kwargs.setdefault("scale_interval", 10.0)  # autoscaler effectively off
    return SLOPolicy(**kwargs)


def calibrate(svc: SolveService, ratio: float = 1.0) -> None:
    """Pin the service's unit->wall ratios (first observation replaces seed)."""
    svc._pricer.observe("hetero", True, units=1.0, wall=ratio)
    svc._pricer.observe("hetero", False, units=1.0, wall=ratio * 0.1)
    svc._pricer.observe("cpu", True, units=1.0, wall=ratio * 0.5)


class TestServiceAdmission:
    def test_impossible_deadline_rejected_at_submit(self):
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=strict_policy())) as svc:
            svc.solve(make_costs_problem(16))  # calibrate for real
            with pytest.raises(AdmissionRejected):
                svc.submit(SolveRequest(make_costs_problem(24), timeout=1e-9))
            stats = svc.stats()["slo"]
            assert stats["shed"] == 1 and stats["admitted"] == 1
        assert get_metrics().counter("serve.admission.shed").value == 1

    def test_admission_rejected_is_overloaded_subtype(self):
        assert issubclass(AdmissionRejected, ServiceOverloaded)
        assert issubclass(QuotaExceeded, ServiceOverloaded)

    def test_no_deadline_always_admitted(self):
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=strict_policy())) as svc:
            result = svc.solve(make_costs_problem(16))
            assert result.table is not None
            assert svc.stats()["slo"]["admitted"] == 1

    def test_rejection_never_after_work_starts(self):
        """Admitted requests may time out or fail — never be shed."""
        policy = strict_policy()
        with SolveService(config=ServiceConfig(workers=2, cache_size=0, slo=policy)) as svc:
            svc.solve(make_costs_problem(16))
            pending = []
            for k in range(30):
                try:
                    pending.append(svc.submit(SolveRequest(
                        make_costs_problem(16, seed=k), timeout=0.05 + 0.01 * k
                    )))
                except (AdmissionRejected, QuotaExceeded):
                    pass  # only legal at submit()
            for p in pending:
                exc = p.exception()
                assert not isinstance(exc, (AdmissionRejected, QuotaExceeded))

    def test_estimate_downgrade_marks_pending_and_skips_table(self):
        policy = strict_policy(downgrade_executor={})
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            problem = make_costs_problem(24)
            units = svc._pricer.units(problem)
            # Pin the calibration so the solve misses the deadline by 10x
            # while the estimate fits comfortably.
            svc._pricer.observe("hetero", True, units=units, wall=10.0)
            svc._pricer.observe("hetero", False, units=units, wall=0.01)
            pending = svc.submit(SolveRequest(
                problem, timeout=1.0, downgradable=True
            ))
            result = pending.result()
            assert pending.downgraded == "solve -> estimate"
            assert result.table is None  # estimate only
            assert svc.stats()["slo"]["downgraded"] == 1

    def test_downgraded_run_uses_distinct_cache_key(self):
        request = SolveRequest(make_costs_problem(16), timeout=5.0)
        fw = Framework()
        full = request_key(request, fw.platform, fw.options)
        down = request_key(
            request, fw.platform, fw.options, executor="cpu", functional=False
        )
        other = request_key(
            request, fw.platform, fw.options, executor="cpu", functional=True
        )
        assert len({full, down, other}) == 3

    def test_quota_exceeded_raised_and_counted(self):
        policy = strict_policy(tenant_quotas={"limited": (0.1, 1)})
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            ok = svc.submit(SolveRequest(
                make_costs_problem(16), tenant="limited"
            ))
            with pytest.raises(QuotaExceeded):
                svc.submit(SolveRequest(
                    make_costs_problem(16, seed=1), tenant="limited"
                ))
            # other tenants are unmetered and unaffected
            other = svc.submit(SolveRequest(
                make_costs_problem(16, seed=2), tenant="free"
            ))
            ok.result(), other.result()
            stats = svc.stats()["slo"]
            assert stats["quota_rejected"] == 1
            assert stats["tenants"]["limited"]["rejected"] == 1
            assert stats["tenants"]["free"]["rejected"] == 0

    def test_stats_exposes_slo_counters(self):
        with SolveService(config=ServiceConfig(workers=2, cache_size=0, slo=strict_policy())) as svc:
            svc.solve(make_costs_problem(16))
            stats = svc.stats()
            for key in ("workers", "workers_busy", "workers_started",
                        "workers_alive"):
                assert key in stats
            slo = stats["slo"]
            for key in ("admitted", "shed", "downgraded", "quota_rejected",
                        "scale_ups", "scale_downs", "backlog_wall_s",
                        "latency_ewma_ms", "calibration", "tenants"):
                assert key in slo
            assert "hetero:solve" in slo["calibration"]

    def test_stats_has_no_slo_section_without_policy(self):
        with SolveService(config=ServiceConfig(workers=1)) as svc:
            assert "slo" not in svc.stats()
            assert svc.stats()["workers_started"] == 1


class TestCoalescedPricing:
    def test_price_computed_once_per_batch_key(self, fresh_metrics):
        """Batch-compatible submissions share one closed-form price."""
        gate = threading.Event()
        policy = strict_policy()
        with SolveService(config=ServiceConfig(
            workers=1, cache_size=0, coalesce_window=0.01, slo=policy)) as svc:
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            computed_before = fresh_metrics.counter("slo.price.computed").value
            pending = [
                svc.submit(SolveRequest(make_costs_problem(16, seed=k)))
                for k in range(4)
            ]
            computed = (
                fresh_metrics.counter("slo.price.computed").value
                - computed_before
            )
            cached = fresh_metrics.counter("slo.price.cached").value
            gate.set()
            blocker.result()
            [p.result() for p in pending]
            assert computed == 1  # same batch key -> one estimator scan
            assert cached == 3

    def test_queued_compatible_work_is_coalescible(self):
        gate = threading.Event()
        policy = strict_policy()
        with SolveService(config=ServiceConfig(
            workers=1, cache_size=0, coalesce_window=0.01, slo=policy)) as svc:
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            first = svc.submit(SolveRequest(make_costs_problem(16, seed=0)))
            with svc._lock:
                key = svc._batch_key_of(first)
                assert svc._coalescible(key)
                assert not svc._coalescible("some-other-key")
            gate.set()
            blocker.result(), first.result()

            # drained queue: nothing left to coalesce with (the active-key
            # bookkeeping clears just after the result is delivered)
            def drained():
                with svc._lock:
                    return not svc._coalescible(key)

            assert wait_until(drained)

    def test_coalescer_spans_carry_the_effective_plan(self):
        """A down-tiered request reports ``cpu`` and its reason on every
        coalescer path: alone after its batch-mate expired in the queue,
        and on the expired mate's own span."""
        from repro.errors import ServiceTimeout
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        cfg = ServiceConfig(workers=1, cache_size=0, coalesce_window=0.3,
                            slo=strict_policy())
        with use_tracer(tracer):
            with SolveService(config=cfg) as svc:
                units = svc._pricer.units(make_costs_problem(16))
                # hetero misses any deadline here, cpu fits easily
                svc._pricer.observe("hetero", True, units=units, wall=100.0)
                svc._pricer.observe("cpu", True, units=units, wall=1e-4)
                leader = svc.submit(SolveRequest(
                    make_costs_problem(16, seed=0), timeout=10.0))
                # the worker holds the leader in its coalescing window
                assert wait_until(lambda: svc.queue_depth() == 0)
                mate = svc.submit(SolveRequest(
                    make_costs_problem(16, seed=1), timeout=0.02))
                result = leader.result()
        assert leader.downgraded and mate.downgraded
        assert result.table is not None
        assert isinstance(mate.exception(), ServiceTimeout)
        spans = {s.attrs["outcome"]: s.attrs for s in tracer.finished_spans()
                 if s.name == "serve.request"}
        assert set(spans) == {"uncached", "timeout"}
        for attrs, pending in ((spans["uncached"], leader),
                               (spans["timeout"], mate)):
            assert attrs["executor"] == "cpu"
            assert attrs["downgraded"] == pending.downgraded
            assert "coalesced" not in attrs


class TestEDFScheduling:
    def test_tighter_deadline_runs_first(self):
        gate = threading.Event()
        order: list[str] = []
        policy = strict_policy()
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            calibrate(svc)
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            time.sleep(0.05)  # let the worker claim the blocker
            slack = svc.submit(SolveRequest(
                make_event_problem(gate, "slack", "slack", order),
                timeout=30.0,
            ))
            tight = svc.submit(SolveRequest(
                make_event_problem(gate, "tight", "tight", order),
                timeout=5.0,
            ))
            gate.set()
            blocker.result(), slack.result(), tight.result()
        assert order == ["tight", "slack"]

    def test_fifo_preserved_when_scheduling_off(self):
        gate = threading.Event()
        order: list[str] = []
        policy = strict_policy(scheduling=False, admission=False)
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            calibrate(svc)
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            time.sleep(0.05)
            first = svc.submit(SolveRequest(
                make_event_problem(gate, "first", "first", order),
                timeout=30.0,
            ))
            second = svc.submit(SolveRequest(
                make_event_problem(gate, "second", "second", order),
                timeout=5.0,
            ))
            gate.set()
            blocker.result(), first.result(), second.result()
        assert order == ["first", "second"]

    def test_priority_still_dominates_deadline(self):
        gate = threading.Event()
        order: list[str] = []
        policy = strict_policy()
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            calibrate(svc)
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            time.sleep(0.05)
            urgent_low = svc.submit(SolveRequest(
                make_event_problem(gate, "urgent-low", "urgent-low", order),
                timeout=2.0, priority=5,
            ))
            relaxed_high = svc.submit(SolveRequest(
                make_event_problem(gate, "relaxed-high", "relaxed-high", order),
                timeout=30.0, priority=0,
            ))
            gate.set()
            blocker.result(), urgent_low.result(), relaxed_high.result()
        assert order == ["relaxed-high", "urgent-low"]

    def test_no_deadline_work_sorts_after_deadlined(self):
        gate = threading.Event()
        order: list[str] = []
        policy = strict_policy()
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            calibrate(svc)
            blocker = svc.submit(SolveRequest(make_event_problem(gate)))
            time.sleep(0.05)
            eternal = svc.submit(SolveRequest(
                make_event_problem(gate, "eternal", "eternal", order),
            ))
            dated = svc.submit(SolveRequest(
                make_event_problem(gate, "dated", "dated", order),
                timeout=20.0,
            ))
            gate.set()
            blocker.result(), eternal.result(), dated.result()
        assert order == ["dated", "eternal"]


# -- autoscaler races ----------------------------------------------------------


class TestAutoscalerIntegration:
    def test_scale_up_then_down_no_leaks(self):
        policy = SLOPolicy(
            min_workers=1, max_workers=3, scale_interval=0.02,
            backlog_per_worker=1.0, scale_down_after=2,
        )
        # The latency fault keeps each run slow enough that the queue has
        # real depth when the scaler thread samples it.
        with inject_faults("serve.execute:latency=0.03"), SolveService(config=ServiceConfig(
            workers=1, cache_size=0, slo=policy)) as svc:
            pending = [
                svc.submit(SolveRequest(make_costs_problem(24, seed=k)))
                for k in range(12)
            ]
            [p.result() for p in pending]
            assert wait_until(lambda: svc.stats()["workers"] == 1)
            stats = svc.stats()
            assert stats["slo"]["scale_ups"] >= 1
            assert stats["slo"]["scale_downs"] >= 1
            assert stats["workers_started"] >= 2
        after = svc.stats()
        assert after["workers_alive"] == 0  # every thread joined at close
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("solve-worker")
        ]

    def test_scale_down_mid_solve_finishes_work(self):
        """Retirement happens between requests, never mid-solve."""
        policy = SLOPolicy(
            min_workers=1, max_workers=2, scale_interval=0.02,
            backlog_per_worker=0.5, scale_down_after=1,
        )
        gates = [threading.Event(), threading.Event()]
        with SolveService(config=ServiceConfig(workers=2, cache_size=0, slo=policy)) as svc:
            busy = [
                svc.submit(SolveRequest(make_event_problem(g, f"busy{k}")))
                for k, g in enumerate(gates)
            ]
            # Both workers are blocked mid-solve; the idle autoscaler ticks
            # cannot retire them until their runs complete.
            time.sleep(0.15)
            assert svc.stats()["workers_busy"] == 2
            for gate in gates:
                gate.set()
            for p in busy:
                assert p.result().table is not None
            assert wait_until(lambda: svc.stats()["workers"] == 1)
        assert svc.stats()["workers_alive"] == 0

    def test_scale_up_under_latency_storm(self):
        """A FaultPlan latency storm backs up the queue; the pool grows."""
        policy = SLOPolicy(
            min_workers=1, max_workers=3, scale_interval=0.02,
            backlog_per_worker=1.0, scale_down_after=50,
        )
        with inject_faults("serve.execute:latency=0.05"), SolveService(config=ServiceConfig(
            workers=1, cache_size=0, slo=policy)) as svc:
            pending = [
                svc.submit(SolveRequest(make_costs_problem(16, seed=k)))
                for k in range(10)
            ]
            grew = wait_until(lambda: svc.stats()["workers"] >= 2)
            results = [p.result() for p in pending]
            assert grew
            assert all(r.table is not None for r in results)
            assert svc.stats()["slo"]["scale_ups"] >= 1

    def test_cancel_token_reaches_late_spawned_worker(self):
        """A worker spawned after enqueue still honours request_cancel()."""
        policy = SLOPolicy(
            min_workers=1, max_workers=2, scale_interval=0.02,
            backlog_per_worker=0.5, scale_down_after=50,
        )
        blocker_gate = threading.Event()
        victim_gate = threading.Event()
        with SolveService(config=ServiceConfig(workers=1, cache_size=0, slo=policy)) as svc:
            started = svc.stats()["workers_started"]
            blocker = svc.submit(SolveRequest(
                make_event_problem(blocker_gate, "blocker")
            ))
            time.sleep(0.05)  # sole worker is now stuck on the blocker
            victim = svc.submit(SolveRequest(
                make_event_problem(victim_gate, "victim")
            ))
            # The autoscaler must spawn a second worker to pick the victim up.
            assert wait_until(
                lambda: svc.stats()["workers_started"] > started
            )
            assert wait_until(lambda: svc.stats()["workers_busy"] == 2)
            assert victim.request_cancel()
            victim_gate.set()
            with pytest.raises(SolveCancelled):
                victim.result()
            blocker_gate.set()
            assert blocker.result().table is not None


# -- metrics additions ---------------------------------------------------------


class TestGaugeLevels:
    def test_gauge_inc_dec(self, fresh_metrics):
        gauge = fresh_metrics.gauge("test.level")
        gauge.inc()
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(2.5)

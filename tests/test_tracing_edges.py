"""Edge-case tests for :mod:`repro.sim.tracing`.

The export path is the evidence trail for every timing claim in the repo,
so its corner cases get explicit coverage: empty timelines must summarize
to zeros (no division by the zero makespan), unknown ``kind`` meta must be
counted rather than dropped, and non-finite task times must be rejected
loudly instead of rendering as a silently empty trace.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import SimulationError
from repro.sim.timeline import TaskRecord, Timeline
from repro.obs.export import chrome_trace
from repro.sim.tracing import summarize, trace_json


def make_timeline(records=None):
    return Timeline(records or [])


class TestEmptyTimeline:
    def test_summarize_is_all_zeros(self):
        s = summarize(make_timeline())
        assert s == {
            "makespan": 0.0,
            "num_tasks": 0,
            "busy": {},
            "utilization": {},
            "task_kinds": {},
        }

    def test_zero_makespan_utilization_is_zero(self):
        # All tasks instantaneous: makespan 0, but resources exist.  The
        # utilization must come back 0.0, not raise ZeroDivisionError.
        tl = make_timeline([TaskRecord(0, "cpu", "t", 0.0, 0.0)])
        s = summarize(tl)
        assert s["makespan"] == 0.0
        assert s["utilization"] == {"cpu": 0.0}

    def test_exports_parse(self):
        tl = make_timeline()
        assert json.loads(trace_json(tl)) == []
        doc = chrome_trace(timeline=tl)
        # metadata ("M") events may name the empty process; no task events
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []


class TestUnknownKind:
    def test_missing_and_unknown_kinds_counted(self):
        tl = make_timeline(
            [
                TaskRecord(0, "cpu", "a", 0.0, 1.0, meta={"kind": "compute"}),
                TaskRecord(1, "cpu", "b", 1.0, 2.0, meta={"kind": "frobnicate"}),
                TaskRecord(2, "cpu", "c", 2.0, 3.0),  # no kind at all
            ]
        )
        s = summarize(tl)
        assert s["task_kinds"] == {"compute": 1, "frobnicate": 1, "other": 1}
        assert s["num_tasks"] == 3


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_trace_json_rejects(self, bad):
        tl = make_timeline([TaskRecord(0, "cpu", "broken", 0.0, bad)])
        with pytest.raises(SimulationError, match="non-finite"):
            trace_json(tl)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_chrome_trace_rejects(self, bad):
        tl = make_timeline([TaskRecord(0, "cpu", "broken", bad, 1.0)])
        with pytest.raises(SimulationError, match="non-finite"):
            chrome_trace(timeline=tl)

    def test_error_names_the_offending_task(self):
        tl = make_timeline(
            [
                TaskRecord(0, "cpu", "fine", 0.0, 1.0),
                TaskRecord(7, "gpu", "kernel[7]", 1.0, math.nan),
            ]
        )
        with pytest.raises(SimulationError, match=r"task 7 \(kernel\[7\]\)"):
            trace_json(tl)


class TestRealTimelineStillExports:
    def test_solver_timeline_round_trips(self, fw, minsum_factory):
        from repro import ContributingSet

        res = fw.solve(minsum_factory(ContributingSet.of("W", "NW", "N")))
        tasks = json.loads(trace_json(res.timeline))
        assert len(tasks) == len(res.timeline)
        doc = chrome_trace(timeline=res.timeline)
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == len(tasks)
        s = summarize(res.timeline)
        assert s["num_tasks"] == len(tasks)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in s["utilization"].values())

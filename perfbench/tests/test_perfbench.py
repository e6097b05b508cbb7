"""Tests for the benchmark's own code (not the program it measures)."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import measure
import report
from tracing import LAYERS, SpanRecorder
from workloads import (
    UNGATED,
    WORKLOADS,
    serve_open_inputs,
    serve_process_inputs,
    solve_mix_inputs,
)

ROOT = Path(__file__).resolve().parents[2]


def _same_problem(a, b) -> bool:
    if a.name != b.name or a.shape != b.shape or a.payload.keys() != b.payload.keys():
        return False
    return all(np.array_equal(np.asarray(a.payload[k]), np.asarray(b.payload[k]))
               for k in a.payload)


# -- generators are deterministic -------------------------------------------------


def test_solve_mix_inputs_repeat_for_a_seed():
    (a, orders_a), (b, orders_b) = solve_mix_inputs(3), solve_mix_inputs(3)
    assert all(_same_problem(x[0], y[0]) and x[1:] == y[1:] for x, y in zip(a, b))
    ga, gb = orders_a(), orders_b()
    assert [next(ga) for _ in range(5)] == [next(gb) for _ in range(5)]
    c, _ = solve_mix_inputs(4)
    assert not all(_same_problem(x[0], y[0]) for x, y in zip(a, c))


def test_serve_open_inputs_repeat_for_a_seed():
    pool_a, arr_a = serve_open_inputs(5, 2.0)
    pool_b, arr_b = serve_open_inputs(5, 2.0)
    assert all(_same_problem(x, y) for x, y in zip(pool_a, pool_b))
    assert [(a.due, a.instance, a.category) for a in arr_a] == [
        (b.due, b.instance, b.category) for b in arr_b
    ]
    assert all(_same_problem(a.problem, b.problem) for a, b in zip(arr_a, arr_b))
    _, arr_c = serve_open_inputs(6, 2.0)
    assert [a.due for a in arr_a] != [c.due for c in arr_c]


def test_serve_open_mix_and_rate():
    _, arrivals = serve_open_inputs(1, 2.0, rate=50.0)
    assert len(arrivals) == 100
    assert all(a.due <= b.due for a, b in zip(arrivals, arrivals[1:]))
    counts = {c: sum(a.category == c for a in arrivals) for c in ("repeat", "edit", "fresh")}
    assert counts == {"repeat": 50, "edit": 20, "fresh": 30}


def test_serve_process_inputs_repeat_for_a_seed():
    a, b = serve_process_inputs(7, 40), serve_process_inputs(7, 40)
    assert [(x[0], x[2], x[3]) for x in a] == [(y[0], y[2], y[3]) for y in b]
    assert all(_same_problem(x[1], y[1]) for x, y in zip(a, b))
    assert any(x[3] == "repeat" for x in a)


# -- the tail rule ------------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 50, 200, 1401])
@pytest.mark.parametrize("ties", [False, True])
def test_tail_keeps_ten_samples_beyond(n, ties):
    rng = random.Random(n)
    values = [rng.randrange(20) if ties else rng.random() for _ in range(n)]
    value, pct, count = measure.tail(values)
    assert count == n
    assert measure.band_tail(values)[1] == pct
    beyond = sum(v > value for v in values)
    at_or_below = n - beyond
    if ties and beyond < measure.TAIL_MARGIN:
        # Only when every distinct value above the bottom has fewer than
        # ten samples above it can the rule not be met.
        assert value == min(values)
    else:
        assert beyond >= measure.TAIL_MARGIN
    assert pct == pytest.approx(100.0 * at_or_below / n)


def test_tail_is_the_highest_such_percentile():
    values = list(range(100))
    value, pct, _ = measure.tail(values)
    assert value == 89 and pct == pytest.approx(90.0)


def test_band_tail_averages_p90_up_to_the_tail():
    values = [float(k) for k in range(200)]
    random.Random(3).shuffle(values)
    value, pct, n, band = measure.band_tail(values)
    # p90 is sample 180; the tail is 189, with ten samples beyond it.
    assert (n, band) == (200, 10)
    assert pct == pytest.approx(95.0)
    assert value == pytest.approx(sum(range(180, 190)) / 10)


def test_band_tail_leaves_out_the_slowest_ten():
    values = [1.0] * 190 + [1000.0] * 10
    assert measure.band_tail(values)[0] == 1.0


def test_band_tail_of_a_short_run_is_the_tail():
    values = [float(k) for k in range(12)]
    value, pct, n, band = measure.band_tail(values)
    assert band == 1 and value == measure.tail(values)[0]
    assert measure.band_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3, 1)


def test_tail_with_too_few_samples_is_the_maximum():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (1, 0, 0.0, 10.0),   # root
        (2, 1, 1.0, 3.0),    # child
        (3, 1, 2.0, 5.0),    # overlapping child: [1, 5] covered once
        (4, 1, 8.0, 12.0),   # child running past the parent: 2 inside
        (5, 2, 1.5, 2.5),    # grandchild: counts against 2, not 1
    ]
    selfs = measure.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.0)


def test_union_length_counts_overlaps_once():
    assert measure.union_length([(0, 2), (1, 3), (5, 6), (6, 7), (4, 4)]) == 5


# -- names -------------------------------------------------------------------------


def test_metric_and_workload_names_are_valid():
    names = ([n for n, _ in report.END_TO_END] + [n for n, _ in report.PER_LAYER]
             + list(WORKLOADS))
    assert all(measure.valid_metric_name(n) for n in names), [
        n for n in names if not measure.valid_metric_name(n)
    ]
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in UNGATED
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert measure.valid_metric_name(m["name"])


# -- the recorder ------------------------------------------------------------------


def test_recorder_wraps_layers_and_restores_them():
    import importlib

    from repro import Framework
    from repro.problems import make_levenshtein

    def lookup(module, path):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [lookup(m, p) for _, m, p in LAYERS]
    with SpanRecorder() as recorder:
        recorder.set_request(7)
        Framework().solve(make_levenshtein(24, seed=1), executor="cpu")
    assert [lookup(m, p) for _, m, p in LAYERS] == before
    layers = recorder.by_layer()
    assert {"exec.solve", "exec.span", "cell"} <= set(layers)
    assert layers["exec.span"]["calls"] == layers["cell"]["calls"]
    root = layers["exec.solve"]
    assert root["self_ms"] < root["total_ms"]
    assert set(recorder.intervals_by_request()) == {7}

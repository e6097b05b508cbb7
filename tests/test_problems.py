"""Tests for the problem factories: metadata, estimate-only mode, semantics."""

import pickle

import numpy as np
import pytest

from repro import Framework, Pattern, problems
from repro.core.classification import horizontal_case
from repro.problems import (
    make_checkerboard,
    make_dithering,
    make_dtw,
    make_fig8_problem,
    make_fig9_problem,
    make_lcs,
    make_levenshtein,
    make_needleman_wunsch,
    make_smith_waterman,
    make_synthetic,
)
from repro.types import ContributingSet

ALL_FACTORIES = [
    make_levenshtein,
    make_lcs,
    make_dtw,
    make_needleman_wunsch,
    make_smith_waterman,
    make_dithering,
    make_checkerboard,
    make_fig8_problem,
    make_fig9_problem,
]


class TestFactoryMetadata:
    @pytest.mark.parametrize("maker", ALL_FACTORIES, ids=lambda m: m.__name__)
    def test_names_include_size(self, maker):
        p = maker(32)
        assert "32" in p.name

    @pytest.mark.parametrize(
        "maker,pattern",
        [
            (make_levenshtein, Pattern.ANTI_DIAGONAL),
            (make_lcs, Pattern.ANTI_DIAGONAL),
            (make_dtw, Pattern.ANTI_DIAGONAL),
            (make_needleman_wunsch, Pattern.ANTI_DIAGONAL),
            (make_smith_waterman, Pattern.ANTI_DIAGONAL),
            (make_dithering, Pattern.KNIGHT_MOVE),
            (make_checkerboard, Pattern.HORIZONTAL),
            (make_fig8_problem, Pattern.INVERTED_L),
            (make_fig9_problem, Pattern.HORIZONTAL),
        ],
        ids=lambda v: getattr(v, "__name__", getattr(v, "value", v)),
    )
    def test_patterns_match_paper(self, maker, pattern):
        assert maker(16).pattern is pattern

    def test_checkerboard_is_case2(self):
        assert horizontal_case(make_checkerboard(16).contributing) == 2

    def test_fig9_is_case1(self):
        assert horizontal_case(make_fig9_problem(16).contributing) == 1

    @pytest.mark.parametrize("maker", ALL_FACTORIES, ids=lambda m: m.__name__)
    def test_estimate_only_mode(self, maker):
        p = maker(64, materialize=False)
        # no numpy arrays allocated in the payload
        assert not any(isinstance(v, np.ndarray) for v in p.payload.values())
        res = Framework().estimate(p)
        assert res.simulated_time > 0

    @pytest.mark.parametrize("maker", ALL_FACTORIES, ids=lambda m: m.__name__)
    def test_rectangular_shapes(self, maker):
        p = maker(16, 24)
        assert p.shape[1] > p.shape[0]

    def test_work_factors_all_positive(self):
        for maker in ALL_FACTORIES:
            p = maker(8)
            assert p.cpu_work > 0 and p.gpu_work > 0


class TestSyntheticFamily:
    @pytest.mark.parametrize("mask", range(1, 16))
    def test_every_mask_constructible_and_solvable(self, mask):
        p = make_synthetic(ContributingSet.from_mask(mask), 10, 11)
        res = Framework().solve(p)
        assert res.table.shape == (10, 11)

    def test_n_only_set_counts_rows(self):
        """f = 1 + min({N}) with zero boundary: row i holds i + 1."""
        p = make_synthetic(ContributingSet.of("N"), 6, 5)
        table = Framework().solve(p).table
        for i in range(6):
            assert (table[i] == i + 1).all()

    def test_w_only_set_counts_columns(self):
        p = make_synthetic(ContributingSet.of("W"), 5, 6)
        table = Framework().solve(p).table
        for j in range(6):
            assert (table[:, j] == j + 1).all()

    def test_nw_only_counts_diagonal_depth(self):
        p = make_synthetic(ContributingSet.of("NW"), 6, 6)
        table = Framework().solve(p).table
        for i in range(6):
            for j in range(6):
                assert table[i, j] == min(i, j) + 1

    def test_full_set_counts_knight_depth(self):
        """With all four parents, value = 1 + min over parents: the length of
        the shortest parent-chain to the boundary."""
        p = make_synthetic(ContributingSet.from_mask(15), 7, 7)
        table = Framework().solve(p).table
        # first row/col are 1 (all parents out of table -> min = 0)
        assert (table[0, :] == 1).all()
        assert (table[:, 0] == 1).all()
        assert table[3, 3] == 1 + min(3, 3, 3, 3)


class TestLevenshteinSemantics:
    def test_known_distance(self):
        p = make_levenshtein(7, 6)
        # kitten -> sitting over a small alphabet encoding
        a = np.array([0, 1, 2, 2, 3, 4], dtype=np.int8)  # kitten
        b = np.array([5, 1, 2, 2, 1, 4, 6], dtype=np.int8)  # sitting
        p.payload["a"], p.payload["b"] = b, a  # shape (8, 7): rows=len(b)+1
        res = Framework().solve(p)
        assert res.table[-1, -1] == 3

    def test_distance_bounds(self):
        p = make_levenshtein(20, 31, seed=5)
        d = Framework().solve(p).table[-1, -1]
        assert 31 - 20 <= d <= 31


class TestDTWSemantics:
    def test_identical_series_zero(self):
        p = make_dtw(16, 16, seed=0)
        p.payload["y"] = p.payload["x"].copy()
        assert Framework().solve(p).table[-1, -1] == pytest.approx(0.0)

    def test_constant_shift(self):
        p = make_dtw(12, 12, seed=1)
        p.payload["y"] = p.payload["x"] + 2.0
        # DTW of x vs x+c is at most n * c
        assert Framework().solve(p).table[-1, -1] <= 12 * 2.0 + 1e-9


class TestCheckerboardSemantics:
    def test_uniform_cost_board(self):
        p = make_checkerboard(5, 5)
        p.payload["cost"] = np.ones((5, 5))
        table = Framework().solve(p).table
        for i in range(5):
            assert (table[i] == i + 1).all()

    def test_monotone_rows(self):
        """Path cost to row i+1 exceeds the cheapest path to row i."""
        p = make_checkerboard(12, 12, seed=3)
        table = Framework().solve(p).table
        mins = table.min(axis=1)
        assert (np.diff(mins) > 0).all()


#: Factories whose problems cannot pickle, with the reason: the Gauss-Seidel
#: sweep's cell closes over the previous iterate and the right-hand side.
UNPICKLABLE = {"make_gauss_seidel_sweep"}

PICKLABLE = sorted(
    name for name in problems.__all__
    if name.startswith("make_") and name not in UNPICKLABLE
)


def _build(name: str):
    maker = getattr(problems, name)
    if name == "make_synthetic":  # keyed by contributing set, then size
        return maker(ContributingSet.of("W", "NW", "N"), 24)
    return maker(24)


class TestPickling:
    """Problems cross the process backend's boundary by pickle; a problem
    that does not pickle runs inline in the parent instead."""

    @pytest.mark.parametrize("name", PICKLABLE)
    def test_round_trip_solves_bit_identically(self, name):
        problem = _build(name)
        clone = pickle.loads(pickle.dumps(problem))
        fw = Framework()
        want = fw.solve(problem, executor="cpu")
        got = fw.solve(clone, executor="cpu")
        assert got.table.dtype == want.table.dtype
        assert got.table.tobytes() == want.table.tobytes()

    def test_gauss_seidel_sweep_is_the_named_exception(self):
        grid = np.zeros((8, 8))
        with pytest.raises(Exception):
            pickle.dumps(problems.make_gauss_seidel_sweep(grid, grid))

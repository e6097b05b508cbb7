"""Checkerboard shortest path — case study VI-C (Fig. 13).

An ``n x n`` grid of cell costs; a path enters anywhere in row 0 and moves to
row ``n-1``, stepping straight, diagonally-left or diagonally-right forward.
Minimum cost to reach ``(i, j)``::

    f(i, j) = c(i, j)                          if i == 0
    f(i, j) = c(i, j) + min(f(i-1, j-1), f(i-1, j), f(i-1, j+1))

with out-of-board neighbours at +inf. Contributing set {NW, N, NE}
-> horizontal pattern, case 2 (two-way boundary exchange, Table II).
"""

from __future__ import annotations

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_checkerboard", "checkerboard_cell", "reference_checkerboard"]


def checkerboard_cell(ctx: EvalContext) -> np.ndarray:
    cost = ctx.payload["cost"]
    best = np.minimum(np.minimum(ctx.nw, ctx.n), ctx.ne)
    return cost[ctx.i, ctx.j] + best


def _init(table: np.ndarray, payload) -> None:
    table[0, :] = payload["cost"][0, :]


def make_checkerboard(
    n: int,
    cols: int | None = None,
    seed: int = 0,
    materialize: bool = True,
) -> LDDPProblem:
    """Minimum-cost path table over a random cost board."""
    cols = n if cols is None else cols
    if materialize:
        rng = np.random.default_rng(seed)
        payload = {"cost": rng.uniform(0.0, 10.0, size=(n, cols))}
        init_fn = _init
    else:
        payload = {"_nbytes_hint": n * cols * 8}
        init_fn = None
    return LDDPProblem(
        name=f"checkerboard-{n}x{cols}",
        shape=(n, cols),
        contributing=ContributingSet.of("NW", "N", "NE"),
        cell=checkerboard_cell,
        init=init_fn,
        fixed_rows=1,
        dtype=np.dtype(np.float64),
        payload=payload,
        estimate_only=not materialize,
        oob_value=np.inf,
        cpu_work=1.0,
        gpu_work=3.0,  # three neighbour loads per cell: memory-bound kernel
        payload_locality={"cost": ("cell", 0, 0)},
    )


def reference_checkerboard(cost: np.ndarray) -> np.ndarray:
    """Scalar reference DP table, for tests."""
    n, m = cost.shape
    f = np.empty_like(cost)
    f[0, :] = cost[0, :]
    for i in range(1, n):
        for j in range(m):
            best = f[i - 1, j]
            if j - 1 >= 0:
                best = min(best, f[i - 1, j - 1])
            if j + 1 < m:
                best = min(best, f[i - 1, j + 1])
            f[i, j] = cost[i, j] + best
    return f

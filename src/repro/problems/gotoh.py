"""Gotoh's affine-gap pairwise alignment — a multi-track LDDP problem.

The paper's introduction lists "pairwise sequence alignment with affine gap
cost" (via Chowdhury & Ramachandran) among the LDDP problems. Affine gaps
(``open + k * extend`` for a k-long gap) need *three* coupled DP tables::

    M[i,j]  = s(a_i, b_j) + max(M, Ix, Iy)[i-1, j-1]
    Ix[i,j] = max(M[i-1,j] + open, Ix[i-1,j] + extend)    # gap in b
    Iy[i,j] = max(M[i,j-1] + open, Iy[i,j-1] + extend)    # gap in a

All three reads stay inside the representative set ({W, NW, N} -> the
anti-diagonal pattern), so the framework runs the *triple* as one LDDP-Plus
problem whose cells are NumPy structured records ``(m, ix, iy)`` — the
framework machinery (wavefronts, splits, transfers) is completely agnostic
to the cell payload, and this problem is the proof.
"""

from __future__ import annotations

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_gotoh", "gotoh_cell", "reference_gotoh", "GOTOH_DTYPE"]

GOTOH_DTYPE = np.dtype([("m", np.float64), ("ix", np.float64), ("iy", np.float64)])

NEG = -1e18  # effectively -inf, but immune to inf-minus-inf surprises


def gotoh_cell(ctx: EvalContext) -> np.ndarray:
    a = ctx.payload["a"]
    b = ctx.payload["b"]
    match = ctx.payload["match"]
    mismatch = ctx.payload["mismatch"]
    open_ = ctx.payload["gap_open"]
    extend = ctx.payload["gap_extend"]

    s = np.where(a[ctx.i - 1] == b[ctx.j - 1], match, mismatch)
    out = np.empty(ctx.i.shape, dtype=GOTOH_DTYPE)
    best_nw = np.maximum(np.maximum(ctx.nw["m"], ctx.nw["ix"]), ctx.nw["iy"])
    out["m"] = s + best_nw
    out["ix"] = np.maximum(ctx.n["m"] + open_, ctx.n["ix"] + extend)
    out["iy"] = np.maximum(ctx.w["m"] + open_, ctx.w["iy"] + extend)
    return out


def _init(table: np.ndarray, payload) -> None:
    open_ = payload["gap_open"]
    extend = payload["gap_extend"]
    table["m"][0, :] = NEG
    table["m"][:, 0] = NEG
    table["m"][0, 0] = 0.0
    table["ix"][0, :] = NEG
    table["iy"][:, 0] = NEG
    js = np.arange(1, table.shape[1])
    table["iy"][0, 1:] = open_ + (js - 1) * extend
    iis = np.arange(1, table.shape[0])
    table["ix"][1:, 0] = open_ + (iis - 1) * extend


def make_gotoh(
    m: int,
    n: int | None = None,
    alphabet: int = 4,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap_open: float = -3.0,
    gap_extend: float = -1.0,
    seed: int = 0,
    materialize: bool = True,
) -> LDDPProblem:
    """Affine-gap global alignment of two random sequences.

    The final alignment score is ``max over fields of table[-1, -1]``.
    """
    n = m if n is None else n
    if materialize:
        rng = np.random.default_rng(seed)
        payload = {
            "a": rng.integers(0, alphabet, m, dtype=np.int8),
            "b": rng.integers(0, alphabet, n, dtype=np.int8),
            "match": match,
            "mismatch": mismatch,
            "gap_open": gap_open,
            "gap_extend": gap_extend,
        }
        init_fn = _init
    else:
        payload = {"_nbytes_hint": m + n}
        init_fn = None
    return LDDPProblem(
        name=f"gotoh-{m}x{n}",
        shape=(m + 1, n + 1),
        contributing=ContributingSet.of("W", "NW", "N"),
        cell=gotoh_cell,
        init=init_fn,
        fixed_rows=1,
        fixed_cols=1,
        dtype=GOTOH_DTYPE,
        payload=payload,
        estimate_only=not materialize,
        cpu_work=2.5,  # three coupled recurrences per cell
        gpu_work=3.5,
        payload_locality={"a": ("row", 1), "b": ("col", 1)},
    )


def reference_gotoh(
    a: np.ndarray,
    b: np.ndarray,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap_open: float = -3.0,
    gap_extend: float = -1.0,
) -> float:
    """Scalar reference: best affine-gap global alignment score."""
    m, n = len(a), len(b)
    M = np.full((m + 1, n + 1), NEG)
    Ix = np.full((m + 1, n + 1), NEG)
    Iy = np.full((m + 1, n + 1), NEG)
    M[0, 0] = 0.0
    for j in range(1, n + 1):
        Iy[0, j] = gap_open + (j - 1) * gap_extend
    for i in range(1, m + 1):
        Ix[i, 0] = gap_open + (i - 1) * gap_extend
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            M[i, j] = s + max(M[i - 1, j - 1], Ix[i - 1, j - 1], Iy[i - 1, j - 1])
            Ix[i, j] = max(M[i - 1, j] + gap_open, Ix[i - 1, j] + gap_extend)
            Iy[i, j] = max(M[i, j - 1] + gap_open, Iy[i, j - 1] + gap_extend)
    return float(max(M[m, n], Ix[m, n], Iy[m, n]))

"""Viterbi decoding of a left-to-right HMM as an LDDP-Plus problem.

Profile/segmental HMMs (speech, gene finding) restrict transitions to
*stay* or *advance one state*. The log-space Viterbi table over
(time, state) then reads only the previous time step's same and previous
states::

    V[t][j] = emit[j][obs[t]] + max( V[t-1][j]   + stay[j],
                                     V[t-1][j-1] + adv[j-1] )

Contributing set {NW, N} -> horizontal pattern, case 1 (Table I row 6):
each time step is one wavefront over all states — the textbook "Viterbi
parallelizes over states" observation, expressed in the paper's taxonomy.
"""

from __future__ import annotations

import numpy as np

from ..core.cellfunc import EvalContext
from ..core.problem import LDDPProblem
from ..types import ContributingSet

__all__ = ["make_viterbi", "viterbi_cell", "reference_viterbi", "viterbi_path"]

NEG = -1e18


def viterbi_cell(ctx: EvalContext) -> np.ndarray:
    emit = ctx.payload["log_emit"]  # (states, symbols)
    stay = ctx.payload["log_stay"]  # (states,)
    adv = ctx.payload["log_adv"]  # (states,) from state j-1 to j
    obs = ctx.payload["obs"]  # (T,)
    t = ctx.i - 1  # row 0 is the initial distribution
    j = ctx.j
    from_stay = ctx.n + stay[j]
    from_prev = np.where(j > 0, ctx.nw + adv[np.maximum(j - 1, 0)], NEG)
    return emit[j, obs[t]] + np.maximum(from_stay, from_prev)


def _init(table, payload) -> None:
    table[0, :] = NEG
    table[0, 0] = 0.0  # must start in state 0 (left-to-right)


def make_viterbi(
    T: int,
    states: int | None = None,
    symbols: int = 6,
    seed: int = 0,
    materialize: bool = True,
) -> LDDPProblem:
    """Decode ``T`` observations against a random left-to-right HMM.

    The table is ``(T+1, states)``; row 0 holds the initial log
    distribution; ``V[T]``'s maximum is the best path's log probability.
    """
    states = max(2, T // 4) if states is None else states
    if materialize:
        rng = np.random.default_rng(seed)
        emit = rng.dirichlet(np.ones(symbols), size=states)
        p_stay = rng.uniform(0.3, 0.9, size=states)
        payload = {
            "log_emit": np.log(emit),
            "log_stay": np.log(p_stay),
            "log_adv": np.log1p(-p_stay),
            "obs": rng.integers(0, symbols, T),
            "states": states,
        }
        init_fn = _init
    else:
        payload = {"_nbytes_hint": states * symbols * 8 + T}
        init_fn = None
    return LDDPProblem(
        name=f"viterbi-{T}x{states}",
        shape=(T + 1, states),
        contributing=ContributingSet.of("NW", "N"),
        cell=viterbi_cell,
        init=init_fn,
        fixed_rows=1,
        dtype=np.dtype(np.float64),
        payload=payload,
        estimate_only=not materialize,
        oob_value=NEG,
        cpu_work=1.4,
        gpu_work=1.8,
        payload_locality={"obs": ("row", 1)},
    )


def reference_viterbi(payload, T: int) -> np.ndarray:
    """Scalar reference Viterbi table, for tests."""
    emit = payload["log_emit"]
    stay = payload["log_stay"]
    adv = payload["log_adv"]
    obs = payload["obs"]
    S = emit.shape[0]
    V = np.full((T + 1, S), NEG)
    V[0, 0] = 0.0
    for t in range(1, T + 1):
        for j in range(S):
            best = V[t - 1, j] + stay[j]
            if j > 0:
                best = max(best, V[t - 1, j - 1] + adv[j - 1])
            V[t, j] = emit[j, obs[t - 1]] + best
    return V


def viterbi_path(table: np.ndarray, payload) -> list[int]:
    """The most likely state sequence, backtracked from the filled table."""
    stay = payload["log_stay"]
    adv = payload["log_adv"]
    T = table.shape[0] - 1
    j = int(np.argmax(table[T]))
    path = [j]
    emit = payload["log_emit"]
    obs = payload["obs"]
    for t in range(T, 1, -1):
        prev_stay = table[t - 1, j] + stay[j]
        score = table[t, j] - emit[j, obs[t - 1]]
        if j > 0 and abs(score - (table[t - 1, j - 1] + adv[j - 1])) < 1e-9 and (
            abs(score - prev_stay) >= 1e-9
            or table[t - 1, j - 1] + adv[j - 1] >= prev_stay
        ):
            j -= 1
        path.append(j)
    path.reverse()
    return path

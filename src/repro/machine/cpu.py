"""Multicore CPU cost model.

Reflects the paper's CPU-side strategy (Sec. IV-A): a few heavy-weight OpenMP
threads, each owning a block of cells, with a fork/join barrier per wavefront
iteration. Costs are deterministic functions of the cell count — the model is
a throughput/latency abstraction, not a cycle-accurate simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PlatformError
from ..faults import check_fault

__all__ = ["CPUModel"]


@dataclass(frozen=True)
class CPUModel:
    """Cost model for a multicore CPU.

    Parameters
    ----------
    name:
        Marketing name, for reports.
    cores:
        Physical core count.
    threads:
        Logical threads (with SMT); only reported, throughput scales with
        ``cores`` and ``parallel_efficiency``.
    freq_ghz:
        Core clock, for reports.
    cell_ns:
        Nanoseconds for one core to process one unit-work cell sequentially.
    parallel_efficiency:
        Scaling efficiency of the parallel loop in (0, 1]; effective speedup
        over one core is ``1 + (p - 1) * parallel_efficiency`` for ``p``
        participating cores.
    fork_us:
        Microseconds of fork/barrier overhead charged once per parallel
        iteration (an OpenMP ``parallel for`` region).
    strided_penalty:
        Multiplier on ``cell_ns`` when the wavefront is not stored
        contiguously (cache-line waste on strided access); mild compared to
        the GPU's coalescing penalty.
    dequeue_us:
        Microseconds a dataflow worker pays to pull one tile from the ready
        queue (lock + dependency-count bookkeeping) — the per-tile analogue
        of ``fork_us``, charged by :meth:`tile_time` instead of a per-wave
        fork.
    """

    name: str
    cores: int
    threads: int
    freq_ghz: float
    cell_ns: float
    parallel_efficiency: float = 0.85
    fork_us: float = 3.0
    strided_penalty: float = 1.15
    dequeue_us: float = 0.5

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise PlatformError("cores must be >= 1")
        if self.threads < self.cores:
            raise PlatformError("logical threads cannot be fewer than cores")
        if self.cell_ns <= 0:
            raise PlatformError("cell_ns must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise PlatformError("parallel_efficiency must be in (0, 1]")
        if self.fork_us < 0:
            raise PlatformError("fork_us cannot be negative")
        if self.strided_penalty < 1:
            raise PlatformError("strided_penalty must be >= 1")
        if self.dequeue_us < 0:
            raise PlatformError("dequeue_us cannot be negative")

    # -- costs (seconds) ----------------------------------------------------

    def speedup(self, cells: int) -> float:
        """Effective parallel speedup for a batch of ``cells`` cells."""
        p = min(self.cores, max(1, cells))
        return 1.0 + (p - 1) * self.parallel_efficiency

    def parallel_time(self, cells: int, work: float = 1.0, contiguous: bool = True) -> float:
        """Seconds for one parallel iteration over ``cells`` cells.

        ``work`` scales the per-cell cost (problem-specific arithmetic
        intensity relative to the unit cell); ``contiguous=False`` applies the
        strided-access penalty. ``machine.cpu`` is a fault-injection site
        (no fallback device exists, so a fault here surfaces as an error).
        """
        check_fault("machine.cpu")
        if cells < 0:
            raise PlatformError("cells cannot be negative")
        if cells == 0:
            return 0.0
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        compute = cells * work * per_cell * 1e-9 / self.speedup(cells)
        return self.fork_us * 1e-6 + compute

    def blocked_time(self, block_cells, work: float = 1.0) -> float:
        """Seconds for one fork/join over a batch of *blocks* (Sec. IV-A).

        ``block_cells`` holds each block's cell count (a sequence or a NumPy
        integer array). Each core sweeps whole blocks sequentially
        (contiguous, no per-cell synchronization); cores make as many
        passes as needed. Load balance follows LPT-style greedy assignment,
        modeled by the max-loaded core of a longest-processing-time packing.
        When every block holds the same ``c`` cells the packing is
        round-robin, so its max load is ``ceil(n / min(cores, n)) * c``.
        """
        cells = np.asarray(block_cells, dtype=np.int64)
        n = cells.size
        if n == 0:
            return 0.0
        lo, hi = int(cells.min()), int(cells.max())
        if lo < 0:
            raise PlatformError("block cell counts cannot be negative")
        cores = min(self.cores, n)
        if lo == hi:
            max_load = -(-n // cores) * hi
        else:
            loads = [0] * cores
            for c in sorted(cells.tolist(), reverse=True):
                k = loads.index(min(loads))
                loads[k] += c
            max_load = max(loads)
        return self.fork_us * 1e-6 + max_load * work * self.cell_ns * 1e-9

    def sequential_time(self, cells: int, work: float = 1.0, contiguous: bool = True) -> float:
        """Seconds for one core to process ``cells`` cells, no fork cost."""
        if cells < 0:
            raise PlatformError("cells cannot be negative")
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        return cells * work * per_cell * 1e-9

    def tile_time(self, cells: int, work: float = 1.0) -> float:
        """Seconds for one dataflow worker to dequeue + sweep one tile.

        One contiguous sequential pass plus the per-tile dequeue overhead;
        no fork/join — the ready queue replaces the barrier, so Sec. IV-A's
        per-wavefront fork cost moves to a (smaller) per-tile one.
        """
        if cells == 0:
            return 0.0
        return self.dequeue_us * 1e-6 + self.sequential_time(cells, work)

    @property
    def peak_cells_per_second(self) -> float:
        """Aggregate throughput at full parallel width (unit work)."""
        return self.speedup(self.cores) / (self.cell_ns * 1e-9)

    def marginal_cell_seconds(self, work: float = 1.0, contiguous: bool = True) -> float:
        """Per-cell cost at full parallelism — used by the analytic tuner."""
        per_cell = self.cell_ns * (1.0 if contiguous else self.strided_penalty)
        return work * per_cell * 1e-9 / self.speedup(self.cores)

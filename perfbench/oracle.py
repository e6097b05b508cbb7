"""Output checks against oracles independent of the code under test.

A problem with an exact ``reference_*`` function in :mod:`repro.problems`
(checkerboard, prefix-sum) is checked against it; every other problem
against the ``sequential`` executor, a cell-by-cell sweep that no solver
tier fronts. Dithering is among the others: ``reference_dithering``
accumulates errors in float64 while the problem stores them as float32,
and on some large images (the 896² test card, for one) a pixel near the
threshold rounds the other way and the difference diffuses over much of
the image, so the float64 reference is no oracle for the float32 problem. Oracles are computed after the timed window and
memoized per instance, so a cache hit and the miss that filled it share
one oracle.

Which tables get checked is a seeded sample: a :class:`Sample` keeps a
bounded reservoir of results per category (cache hit, delta patch, menu
slot, ...) while the window runs, and :meth:`Sample.check` then walks the
categories round-robin until the oracle time budget is spent.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro import Framework
from repro.problems import reference_checkerboard, reference_prefix_sum

#: Oracle seconds per computed cell, for budgeting (2-core x86 box).
_COST_PER_CELL = {"checkerboard": 1.9e-6, "prefix-sum": 1e-8}
_SEQUENTIAL_COST_PER_CELL = 2.7e-5


def _family(problem) -> str:
    for family in _COST_PER_CELL:
        if problem.name.startswith(family + "-"):
            return family
    return "sequential"


def oracle_cost(problem) -> float:
    """Estimated oracle seconds for ``problem``."""
    per_cell = _COST_PER_CELL.get(_family(problem), _SEQUENTIAL_COST_PER_CELL)
    return per_cell * problem.total_computed_cells


def expected(problem, framework: Framework) -> tuple:
    """The oracle for ``problem``: ``(table, aux arrays)``."""
    family = _family(problem)
    payload = problem.payload
    if family == "checkerboard":
        return reference_checkerboard(payload["cost"]), {}
    if family == "prefix-sum":
        return reference_prefix_sum(payload["x"]), {}
    result = framework.solve(problem, executor="sequential")
    return result.table, result.aux


def matches(result, oracle: tuple) -> bool:
    """Whether ``result`` holds exactly the arrays ``oracle`` expects."""
    table, aux = oracle
    return bool(
        np.array_equal(np.asarray(result.table), table)
        and all(np.array_equal(result.aux.get(k), v) for k, v in aux.items())
    )


class Sample:
    """Seeded reservoirs of results to check, ``per_category`` each."""

    def __init__(self, seed: int, per_category: int = 4) -> None:
        self._rng = random.Random(seed)
        self.per_category = per_category
        self._seen: dict[str, int] = {}
        self._kept: dict[str, list] = {}

    def offer(self, category: str, instance_id, problem, result) -> None:
        """Offer one completed operation; keeps a uniform sample of each."""
        seen = self._seen[category] = self._seen.get(category, 0) + 1
        kept = self._kept.setdefault(category, [])
        entry = (instance_id, problem, result)
        if len(kept) < self.per_category:
            kept.append(entry)
        else:
            slot = self._rng.randrange(seen)
            if slot < self.per_category:
                kept[slot] = entry

    def check(self, budget_s: float) -> dict:
        """Check kept results, one per category per round, within budget.

        Categories take turns in a seeded order; within a round the results
        with cheap oracles go first. A new oracle starts only while less
        than ``budget_s`` has been spent, so the budget is overrun by at
        most one oracle and at least one result is always checked. Returns
        the counts, the oracle seconds spent and the ids of instances whose
        tables were wrong.
        """
        framework = Framework()
        queues = {c: list(v) for c, v in self._kept.items()}
        order = sorted(queues)
        self._rng.shuffle(order)
        oracles: dict = {}
        checked = 0
        wrong: list = []
        started = time.perf_counter()
        while any(queues.values()):
            batch = [queues[c].pop(0) for c in order if queues[c]]
            batch.sort(key=lambda entry: oracle_cost(entry[1]) > 1.0)
            for instance_id, problem, result in batch:
                if instance_id not in oracles:
                    if time.perf_counter() - started >= budget_s:
                        continue
                    oracles[instance_id] = expected(problem, framework)
                checked += 1
                if not matches(result, oracles[instance_id]):
                    wrong.append(instance_id)
        self._kept.clear()
        return {"checked": checked, "wrong": wrong,
                "oracle_s": time.perf_counter() - started,
                "offered": dict(sorted(self._seen.items()))}

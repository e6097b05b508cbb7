"""Solve requests and their content-keyed cache signatures.

A :class:`SolveRequest` bundles everything one service call needs — the
problem, the executor name, per-request :class:`~repro.exec.base.ExecOptions`,
optional :class:`~repro.core.partition.HeteroParams`, a priority and a
timeout — and computes a *content signature* at construction time.

The signature is a SHA-256 over the problem's full observable content: its
name, its :func:`~repro.signature.recurrence_digest` (every other field,
the cell and init code and any data their closures capture included) and
the payload *bytes*. Two requests share a cache entry iff nothing an
executor can observe differs.

Mutability is the enemy of content keys, so construction also defends against
callers mutating payload arrays after submission:

* payload values without a well-defined content key (arbitrary objects, sets,
  open handles) are **rejected** with :class:`~repro.errors.CacheKeyError`
  unless the request is marked ``cacheable=False``;
* ndarray payload entries are **deep-copied and frozen** (``writeable=False``)
  into a private problem snapshot, so the signature computed here always
  describes exactly the bytes the worker will read — the caller's original
  problem object is left untouched and stays mutable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..core.partition import HeteroParams
from ..core.problem import LDDPProblem
from ..errors import CacheKeyError
from ..exec.base import ExecOptions
from ..machine.platform import Platform
from ..signature import payload_digest, recurrence_digest
from ..signature import update_hash as _update

__all__ = ["SolveRequest", "problem_signature", "request_key"]


def problem_signature(problem: LDDPProblem) -> str:
    """SHA-256 hex digest of everything an executor can observe.

    Name + :func:`~repro.signature.recurrence_digest` +
    :func:`~repro.signature.payload_digest`. Raises
    :class:`~repro.errors.CacheKeyError` if the cell/init function or the
    payload holds values without a well-defined content key.
    """
    recurrence = recurrence_digest(problem)
    if recurrence is None:
        raise CacheKeyError(
            f"{problem.name}: the cell/init function has no well-defined "
            "content key — mark the request cacheable=False to bypass the "
            "result cache"
        )
    h = hashlib.sha256()
    _update(h, "name", problem.name.encode())
    _update(h, "recurrence", recurrence.encode())
    _update(h, "payload", payload_digest(problem.payload).encode())
    return h.hexdigest()


def request_key(
    request: "SolveRequest",
    platform: Platform,
    options: ExecOptions,
    *,
    executor: str | None = None,
    functional: bool | None = None,
) -> str:
    """Full cache key: problem signature x platform x options x dispatch.

    ``options`` is the *effective* options for the run (the request override
    or the service default) so option ablations never collide. ``executor``
    and ``functional`` override the request's own fields when the SLO
    admission controller down-tiered the run — a downgraded execution must
    never share a cache entry with the full-fidelity one.
    """
    h = hashlib.sha256()
    _update(h, "problem", (request.signature or "").encode())
    _update(h, "platform", repr(platform).encode())
    _update(h, "options", repr(options).encode())
    _update(h, "executor",
            (request.executor if executor is None else executor).encode())
    _update(h, "params", repr(request.params).encode())
    _update(h, "functional", repr(
        request.functional if functional is None else functional
    ).encode())
    return h.hexdigest()


# -- payload freezing ----------------------------------------------------------


def _freeze_value(value: Any):
    """Deep-copy mutable containers/arrays; returned ndarrays are read-only."""
    if isinstance(value, np.ndarray):
        frozen = value.copy()
        frozen.flags.writeable = False
        return frozen
    if isinstance(value, list):
        return [_freeze_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze_value(v) for k, v in value.items()}
    return value


# -- the request itself --------------------------------------------------------


@dataclass
class SolveRequest:
    """One unit of work for a :class:`~repro.serve.SolveService`.

    Parameters
    ----------
    problem:
        The :class:`LDDPProblem` to solve, or a zero/one-argument factory
        (``factory()`` or ``factory(size)``) — pass ``size`` alongside.
    executor:
        Registered executor name (see ``Framework.executors()``).
    options:
        Per-request :class:`ExecOptions` override; ``None`` uses the
        service's options.
    params:
        Explicit :class:`HeteroParams` for the heterogeneous executor.
    priority:
        Smaller runs sooner; ties drain FIFO.
    timeout:
        Seconds from submission until the request expires. Expired requests
        fail with :class:`~repro.errors.ServiceTimeout` instead of running.
    functional:
        ``True`` -> ``solve`` (fill the table); ``False`` -> ``estimate``
        (timing model only).
    cacheable:
        ``False`` skips signature computation and the result cache — the
        escape hatch for payloads without a content key.
    tenant:
        Quota-accounting identity (see :class:`repro.slo.SLOPolicy`). Has
        no effect on execution or cache keys — two tenants submitting the
        same problem share one cache entry.
    downgradable:
        Opt-in for the SLO admission controller to down-tier this request
        from ``solve`` to ``estimate`` (timing model only, ``table=None``)
        rather than reject it when its deadline is otherwise infeasible.
        Executor down-tiers are governed by the policy alone; the
        solve->estimate downgrade changes what the caller gets back, so it
        requires this flag.
    """

    problem: LDDPProblem
    executor: str = "hetero"
    options: ExecOptions | None = None
    params: HeteroParams | None = None
    priority: int = 0
    timeout: float | None = None
    functional: bool = True
    cacheable: bool = True
    size: int | None = None
    tenant: str = "default"
    downgradable: bool = False
    signature: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if callable(self.problem) and not isinstance(self.problem, LDDPProblem):
            factory = self.problem
            self.problem = factory(self.size) if self.size is not None else factory()
        if not isinstance(self.problem, LDDPProblem):
            raise TypeError(
                f"problem must be an LDDPProblem or a factory, got "
                f"{type(self.problem).__name__}"
            )
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")
        if self.cacheable:
            # Snapshot the payload first (private read-only copy), then sign
            # the snapshot: the signature therefore describes exactly the
            # bytes the worker will read, whatever the caller later does to
            # the original problem object.
            frozen = _freeze_value(self.problem.payload)
            if frozen is not self.problem.payload:
                self.problem = replace(self.problem, payload=frozen)
            self.signature = problem_signature(self.problem)

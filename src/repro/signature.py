"""Content hashing: the one place a problem's identity is defined.

A *content signature* is a SHA-256 over the observable content of a value —
scalars by repr, strings/bytes raw, arrays as dtype/shape plus raw bytes,
containers recursively, callables by compiled code plus captured closure
data. Two values share a signature iff nothing a consumer can observe
differs.

Every content key over a problem derives from two digests here:
:func:`recurrence_digest` (every field but ``name`` and ``payload``) and
:func:`payload_digest`. The serve cache signs name + recurrence + payload;
the batch and delta keys add their run settings to the recurrence alone.
:mod:`repro.kernels` keys compiled plans on a geometry/dtype subset.

All feeds go through :func:`update_hash`, which writes length-prefixed,
tagged records so concatenation can never alias two distinct inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Any, Callable

import numpy as np

from .errors import CacheKeyError

__all__ = ["update_hash", "hash_value", "hash_callable", "recurrence_digest",
           "payload_digest"]


def update_hash(h, tag: str, data: bytes | np.ndarray = b"") -> None:
    """Length-prefixed, tagged feed — immune to concatenation ambiguity.

    ``data`` may also be a C-contiguous array: it is fed through the buffer
    protocol, byte-identical to feeding its ``tobytes()`` but without the
    payload-sized copy.
    """
    h.update(tag.encode())
    h.update(b"\x1f")
    h.update(str(getattr(data, "nbytes", len(data))).encode())
    h.update(b"\x1f")
    h.update(data)


def hash_value(h, value: Any, where: str) -> None:
    """Feed one payload/closure value into the hash, or reject it."""
    if value is None:
        update_hash(h, "none")
    elif isinstance(value, (bool, int, float, complex, np.generic)):
        update_hash(h, type(value).__name__, repr(value).encode())
    elif isinstance(value, str):
        update_hash(h, "str", value.encode())
    elif isinstance(value, bytes):
        update_hash(h, "bytes", value)
    elif isinstance(value, np.dtype):
        update_hash(h, "dtype", str(value).encode())
    elif isinstance(value, np.ndarray):
        update_hash(h, "ndarray", f"{value.dtype}|{value.shape}".encode())
        update_hash(h, "data", np.ascontiguousarray(value))
    elif isinstance(value, (tuple, list)):
        update_hash(h, type(value).__name__, str(len(value)).encode())
        for k, item in enumerate(value):
            hash_value(h, item, f"{where}[{k}]")
    elif isinstance(value, dict):
        keys = list(value)
        if any(not isinstance(k, str) for k in keys):
            raise CacheKeyError(
                f"{where}: dict keys must be strings to be content-hashable"
            )
        update_hash(h, "dict", str(len(keys)).encode())
        for k in sorted(keys):
            update_hash(h, "key", k.encode())
            hash_value(h, value[k], f"{where}[{k!r}]")
    else:
        raise CacheKeyError(
            f"{where}: value of type {type(value).__name__} has no "
            "well-defined content key; use scalars, strings, bytes, "
            "lists/tuples/dicts or numpy arrays — or mark the request "
            "cacheable=False to bypass the result cache"
        )


def hash_callable(h, fn: Callable, where: str) -> None:
    """Feed a cell/init function's identity: code bytes + captured data."""
    fn = getattr(fn, "fn", fn)  # unwrap CellFunction
    update_hash(h, "fn", f"{getattr(fn, '__module__', '')}."
                         f"{getattr(fn, '__qualname__', type(fn).__name__)}".encode())
    code = getattr(fn, "__code__", None)
    if code is None:
        code = getattr(getattr(fn, "__call__", None), "__code__", None)
    if code is not None:
        update_hash(h, "co_code", code.co_code)
        update_hash(h, "co_consts", repr(code.co_consts).encode())
        update_hash(h, "co_names", repr(code.co_names).encode())
    closure = getattr(fn, "__closure__", None)
    if closure:
        for k, cell in enumerate(closure):
            try:
                contents = cell.cell_contents
            except ValueError:  # empty cell
                update_hash(h, "cell-empty")
                continue
            try:
                hash_value(h, contents, f"{where}.closure[{k}]")
            except CacheKeyError:
                if callable(contents):
                    hash_callable(h, contents, f"{where}.closure[{k}]")
                else:
                    # Opaque captured state: key on its type — conservative
                    # (may split cache entries) but never aliases distinct
                    # problems, because the payload bytes are always hashed.
                    update_hash(h, "opaque", type(contents).__name__.encode())


# -- problem identity ---------------------------------------------------------


def _text(h, tag: str, value: Any) -> None:
    update_hash(h, tag, repr(value).encode())


def _code(h, tag: str, fn: Callable | None) -> None:
    update_hash(h, tag, b"none" if fn is None else b"code")
    if fn is not None:
        hash_callable(h, fn, tag)


def _dtypes(h, tag: str, specs) -> None:
    # ``np.int8`` and ``np.dtype("int8")`` declare the same aux plane.
    _text(h, tag, sorted((k, str(np.dtype(v))) for k, v in specs.items()))


def _mapping(h, tag: str, mapping) -> None:
    _text(h, tag, None if mapping is None else sorted(mapping.items()))


#: The ``LDDPProblem`` fields whose ``repr`` is not their identity; every
#: other field but the two in ``_NOT_RECURRENCE`` is keyed by ``repr``.
_FEEDS = {
    "cell": _code,
    "init": _code,
    "aux_specs": _dtypes,
    "payload_locality": _mapping,
}
_NOT_RECURRENCE = ("name", "payload")


def recurrence_digest(problem) -> str | None:
    """SHA-256 over everything in ``problem`` except its name and payload.

    Two problems share this digest iff they run the same recurrence over
    the same geometry — they may differ only in the data they read. Returns
    ``None`` when the cell or init function cannot be content-keyed.
    """
    h = hashlib.sha256()
    try:
        for f in fields(problem):
            if f.name not in _NOT_RECURRENCE:
                feed = _FEEDS.get(f.name, _text)
                feed(h, f.name, getattr(problem, f.name))
    except Exception:  # noqa: BLE001 - e.g. a self-referential closure
        # A recurrence whose identity cannot be content-keyed can prove
        # equality with nothing: no cache, batch or delta key for it.
        return None
    return h.hexdigest()


def payload_digest(payload: Any) -> str:
    """SHA-256 over the payload's content.

    Raises :class:`~repro.errors.CacheKeyError` if the payload holds values
    without a well-defined content key.
    """
    h = hashlib.sha256()
    hash_value(h, payload, "payload")
    return h.hexdigest()

"""Problem identity: one recurrence digest behind every content key.

* every ``LDDPProblem`` field except ``name`` and ``payload`` keys the
  recurrence digest — a new field fails the drift guard below until it is
  given a variant here (or named as an exclusion in ``repro.signature``);
* the cache signature adds the name and the payload bytes; the batch and
  delta keys add neither;
* arrays are fed through the buffer protocol, byte-identical to the
  ``tobytes()`` feed they replace.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import ContributingSet, LDDPProblem
from repro.batch import batch_key, payload_fingerprint
from repro.core.linear import LinearSpec
from repro.delta import delta_key
from repro.errors import CacheKeyError
from repro.problems.levenshtein import make_levenshtein
from repro.serve import problem_signature
from repro.signature import hash_value, recurrence_digest, update_hash


def _other_cell(ctx):
    return ctx.w + 1


def _other_init(table, payload):
    table[0, :] = 0


BASE = make_levenshtein(16)

#: One valid variant per recurrence field, differing from ``BASE`` only
#: there. ``contributing`` needs the bare cell function rebuilt with it.
VARIANTS = {
    "shape": dict(shape=(BASE.shape[0] + 1, BASE.shape[1])),
    "contributing": dict(contributing=ContributingSet.of("W", "N"),
                         cell=BASE.cell.fn),
    "cell": dict(cell=_other_cell),
    "init": dict(init=_other_init),
    "fixed_rows": dict(fixed_rows=2),
    "fixed_cols": dict(fixed_cols=2),
    "dtype": dict(dtype=np.dtype(np.float32)),
    "aux_specs": dict(aux_specs={"p": np.dtype(np.int8)}),
    "oob_value": dict(oob_value=7),
    "linear": dict(linear=LinearSpec(w=1)),
    "estimate_only": dict(estimate_only=True),
    "cpu_work": dict(cpu_work=2.0),
    "gpu_work": dict(gpu_work=2.0),
    "payload_locality": dict(payload_locality=None),
}


def test_every_field_but_name_and_payload_is_a_variant():
    keyed = {f.name for f in fields(LDDPProblem)} - {"name", "payload"}
    assert set(VARIANTS) == keyed


@pytest.mark.parametrize("field_name", sorted(VARIANTS))
def test_each_recurrence_field_changes_the_digest(field_name):
    variant = replace(BASE, **VARIANTS[field_name])
    assert recurrence_digest(variant) != recurrence_digest(BASE)


def test_rewrapping_the_cell_keeps_the_digest():
    """The contributing-set variant rebuilds the cell; that alone is no
    change, so the variant above really isolates the contributing set."""
    assert recurrence_digest(replace(BASE, cell=BASE.cell.fn)) == (
        recurrence_digest(BASE))


def test_aux_spec_dtype_spellings_share_a_digest():
    a = replace(BASE, aux_specs={"p": np.int8})
    b = replace(BASE, aux_specs={"p": np.dtype("int8")})
    assert recurrence_digest(a) == recurrence_digest(b)


def test_name_keys_the_signature_only():
    renamed = replace(BASE, name="renamed")
    assert problem_signature(renamed) != problem_signature(BASE)
    assert batch_key(renamed) == batch_key(BASE)
    assert delta_key(renamed) == delta_key(BASE)


def test_payload_bytes_key_the_signature_and_fingerprint_only():
    a = BASE.payload["a"].copy()
    a[0] += 1
    edited = replace(BASE, payload=dict(BASE.payload, a=a))
    assert problem_signature(edited) != problem_signature(BASE)
    assert payload_fingerprint(edited) != payload_fingerprint(BASE)
    assert batch_key(edited) == batch_key(BASE)
    assert delta_key(edited) == delta_key(BASE)


def test_unkeyable_cell_has_no_digest_and_no_keys():
    def recursive_cell(ctx):  # captures itself: no finite content key
        return recursive_cell and ctx.w

    problem = LDDPProblem(
        name="recursive", shape=(4, 4),
        contributing=ContributingSet.of("W"), cell=recursive_cell,
    )
    assert recurrence_digest(problem) is None
    assert batch_key(problem) is None and delta_key(problem) is None
    with pytest.raises(CacheKeyError, match="cacheable=False"):
        problem_signature(problem)


def _tobytes_feed(value: np.ndarray) -> str:
    h = hashlib.sha256()
    update_hash(h, "ndarray", f"{value.dtype}|{value.shape}".encode())
    update_hash(h, "data", np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("value", [
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.arange(12, dtype=np.float64).reshape(3, 4).T,
    np.arange(30, dtype=np.int32)[::3],
    np.array(2.5),
    np.zeros((0, 3)),
    np.arange(6, dtype=">i4"),
], ids=["contiguous", "transposed", "strided", "0-d", "empty", "big-endian"])
def test_array_feed_equals_the_tobytes_feed(value):
    h = hashlib.sha256()
    hash_value(h, value, "payload")
    assert h.hexdigest() == _tobytes_feed(value)

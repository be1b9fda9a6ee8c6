"""Property-based tests for the UO bitset and message wire accounting.

The bitset is the dirty-tracking substrate of the UO optimization and its
packed size is what its wire format costs; ``Message.wire_bytes`` is what every
simulated byte count in the study sums.  These invariants back the size
accounting the cost model and the figures rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bitset import Bitset
from repro.comm.buffers import (
    HEADER_BYTES,
    Message,
    MessageHeader,
    batch_arrays,
)
from repro.constants import GID_BYTES

SETTINGS = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------------------- #
# set / clear / count invariants
# --------------------------------------------------------------------------- #
@st.composite
def _ops(draw):
    size = draw(st.integers(1, 200))
    n_ops = draw(st.integers(0, 40))
    ops = [
        (
            draw(st.sampled_from(["set", "clear"])),
            draw(st.lists(st.integers(0, size - 1), max_size=10)),
        )
        for _ in range(n_ops)
    ]
    return size, ops


@given(s=_ops())
@SETTINGS
def test_bitset_tracks_a_set_model(s):
    size, ops = s
    b = Bitset(size)
    model: set[int] = set()
    for kind, ids in ops:
        if kind == "set":
            if ids:
                b.set(np.asarray(ids))
            model |= set(ids)
        else:
            if ids:
                b.clear(np.asarray(ids))
            model -= set(ids)
        assert b.count() == len(model)
        assert b.any() == bool(model)
        np.testing.assert_array_equal(b.indices(), sorted(model))
        if ids:
            assert b.bits[ids].all() == (kind == "set")
    b.clear()
    assert b.count() == 0 and not b.any()


# --------------------------------------------------------------------------- #
# packed wire size
# --------------------------------------------------------------------------- #
@given(size=st.integers(0, 4096))
@SETTINGS
def test_packed_size_accounting(size):
    assert Bitset.packed_nbytes(size) == (size + 7) // 8
    assert isinstance(Bitset.packed_nbytes(np.int64(size)), int)
    packed = np.packbits(Bitset(size).bits, bitorder="little")
    assert len(packed) == Bitset.packed_nbytes(size)


def test_negative_sizes_rejected():
    with pytest.raises(ValueError):
        Bitset(-1)
    with pytest.raises(ValueError):
        Bitset.packed_nbytes(-8)


# --------------------------------------------------------------------------- #
# message wire accounting and batching
# --------------------------------------------------------------------------- #
@st.composite
def _message(draw):
    n = draw(st.integers(0, 50))
    exchange = draw(st.integers(n, 300))
    kind = draw(st.sampled_from(["memoized-full", "memoized-subset", "ids"]))
    values = np.zeros(n, dtype=draw(st.sampled_from([np.uint32, np.float64])))
    positions = None
    ids = None
    if kind == "memoized-subset":
        positions = np.arange(n, dtype=np.int64)
    elif kind == "ids":
        ids = np.arange(n, dtype=np.int64)
    return Message(
        header=MessageHeader(
            src=draw(st.integers(0, 7)), dst=draw(st.integers(0, 7)),
            phase="reduce", field="x",
        ),
        values=values,
        positions=positions,
        exchange_len=exchange,
        explicit_ids=ids,
        scanned_elements=exchange if kind == "memoized-subset" else 0,
    ), kind


@given(m=_message())
@SETTINGS
def test_wire_bytes_decomposition(m):
    msg, kind = m
    expected = HEADER_BYTES + msg.values.nbytes
    if kind == "memoized-subset":
        expected += Bitset.packed_nbytes(msg.exchange_len)
    elif kind == "ids":
        expected += msg.num_elements * GID_BYTES
    got = msg.wire_bytes()
    assert got == expected
    assert isinstance(got, int)


@given(ms=st.lists(_message(), max_size=12))
@SETTINGS
def test_batch_arrays_matches_per_message_scalars(ms):
    msgs = [m for m, _ in ms]
    batch = batch_arrays(msgs)
    assert len(batch.src) == len(msgs)
    for i, msg in enumerate(msgs):
        assert batch.src[i] == msg.header.src
        assert batch.dst[i] == msg.header.dst
        assert batch.wire_bytes[i] == msg.wire_bytes()
        assert batch.num_elements[i] == msg.num_elements
        assert batch.scanned_elements[i] == msg.scanned_elements

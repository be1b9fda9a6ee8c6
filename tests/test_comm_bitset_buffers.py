"""Tests for bitsets and wire-message size accounting."""

import numpy as np
import pytest

from repro.comm import Bitset, Message, MessageHeader
from repro.comm.buffers import HEADER_BYTES
from repro.constants import GID_BYTES


class TestBitset:
    def test_starts_clear(self):
        b = Bitset(10)
        assert b.count() == 0
        assert not b.any()

    def test_set_and_test(self):
        b = Bitset(10)
        b.set([2, 5])
        assert b.bits[2] and b.bits[5]
        assert not b.bits[0]
        assert b.count() == 2

    def test_clear_subset(self):
        b = Bitset(10)
        b.set([1, 2, 3])
        b.clear([2])
        assert b.indices().tolist() == [1, 3]

    def test_clear_all(self):
        b = Bitset(10)
        b.set(np.arange(10))
        b.clear()
        assert b.count() == 0

    def test_packed_size(self):
        assert Bitset.packed_nbytes(0) == 0
        assert Bitset.packed_nbytes(1) == 1
        assert Bitset.packed_nbytes(8) == 1
        assert Bitset.packed_nbytes(9) == 2
        assert Bitset.packed_nbytes(64) == 8

    def test_empty_index_set(self):
        b = Bitset(5)
        b.set(np.empty(0, dtype=np.int64))
        assert b.count() == 0


def _msg(n=10, positions=None, exchange_len=0, explicit=False):
    vals = np.zeros(n, dtype=np.uint32)
    return Message(
        header=MessageHeader(0, 1, "reduce", "dist"),
        values=vals,
        positions=positions,
        exchange_len=exchange_len,
        explicit_ids=np.arange(n, dtype=np.int64) if explicit else None,
    )


class TestMessageWireBytes:
    def test_memoized_full_list(self):
        m = _msg(10)
        assert m.wire_bytes() == HEADER_BYTES + 40

    def test_memoized_subset_adds_bitset(self):
        m = _msg(4, positions=np.array([0, 2, 5, 9]), exchange_len=100)
        assert m.wire_bytes() == HEADER_BYTES + 16 + Bitset.packed_nbytes(100)

    def test_explicit_ids_add_gid_bytes(self):
        m = _msg(10, explicit=True)
        assert m.wire_bytes() == HEADER_BYTES + 40 + 10 * GID_BYTES

    def test_explicit_costs_more_than_memoized(self):
        assert _msg(50, explicit=True).wire_bytes() > _msg(50).wire_bytes()

    def test_num_elements(self):
        assert _msg(7).num_elements == 7

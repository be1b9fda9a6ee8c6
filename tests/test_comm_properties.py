"""Property-based tests for the synchronization substrate.

The oracle: apply an arbitrary sequence of writes at writable proxies,
run one BSP sync, and compare the master values against combining the same
writes directly with the reduction operator on a flat global array.  Any
divergence means the exchange lists, invariant filtering, or dirty-bit
machinery lost or duplicated a write.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.comm import CommConfig, FieldSpec, FieldViews, GluonComm
from repro.constants import INF
from repro.graph import from_edges
from repro.partition import POLICIES, partition
from tests.test_comm_gluon import sync

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenario(draw):
    n = draw(st.integers(6, 50))
    m = draw(st.integers(n, 4 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    g = from_edges(src, dst, num_vertices=n)
    policy = draw(st.sampled_from(sorted(POLICIES)))
    parts = draw(st.sampled_from([2, 3, 4]))
    # (vertex, value) writes; applied at every writable proxy of the vertex
    writes = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 1000)),
            min_size=0, max_size=30,
        )
    )
    update_only = draw(st.booleans())
    return g, policy, parts, writes, update_only


@given(s=scenario())
@SETTINGS
def test_min_sync_equals_direct_combination(s):
    g, policy, parts, writes, update_only = s
    pg = partition(g, policy, parts, cache=False)
    spec = FieldSpec(name="x", dtype=np.uint32, reduce_op="min",
                     read_at="src", write_at="dst", identity=INF)
    comm = GluonComm(pg, [spec], CommConfig(update_only=update_only))
    labels = FieldViews(
        [np.full(p.num_local, INF, dtype=np.uint32) for p in pg.parts]
    )

    oracle = np.full(g.num_vertices, INF, dtype=np.uint32)
    for v, val in writes:
        oracle[v] = min(oracle[v], val)
        for p in pg.parts:
            l = p.global_to_local[v]
            # a write lands wherever a dst-write could happen: proxies with
            # local in-edges, and always at the master
            if l >= 0 and (p.has_in_edges()[l] or p.is_master[l]):
                if val < labels[p.pid][l]:
                    labels[p.pid][l] = val
                    comm.mark_updated("x", p.pid, [l])

    sync(comm, "x", labels)
    got = pg.gather_master_labels(labels)
    assert np.array_equal(got, oracle)


@given(s=scenario())
@SETTINGS
def test_add_sync_accumulates_exactly(s):
    """Accumulator semantics: every delta reaches the master exactly once."""
    g, policy, parts, writes, update_only = s
    pg = partition(g, policy, parts, cache=False)
    spec = FieldSpec(name="acc", dtype=np.int64, reduce_op="add",
                     read_at="none", write_at="dst", identity=0,
                     reset_after_reduce=True)
    comm = GluonComm(pg, [spec], CommConfig(update_only=update_only))
    labels = FieldViews([np.zeros(p.num_local, dtype=np.int64) for p in pg.parts])

    oracle = np.zeros(g.num_vertices, dtype=np.int64)
    for v, val in writes:
        # write the delta at exactly one writable proxy (round-robin pick)
        holders = [
            p.pid for p in pg.parts
            if p.global_to_local[v] >= 0
            and (p.has_in_edges()[p.global_to_local[v]]
                 or p.is_master[p.global_to_local[v]])
        ]
        if not holders:
            continue
        pid = holders[val % len(holders)]
        l = pg.parts[pid].global_to_local[v]
        labels[pid][l] += val
        comm.mark_updated("acc", pid, [l])
        oracle[v] += val

    sync(comm, "acc", labels)
    got = pg.gather_master_labels(labels)
    assert np.array_equal(got, oracle)


@given(s=scenario())
@SETTINGS
def test_second_sync_moves_nothing_under_uo(s):
    """After one sync, a second sync with no new writes is silent (UO)."""
    g, policy, parts, writes, _ = s
    pg = partition(g, policy, parts, cache=False)
    spec = FieldSpec(name="x", dtype=np.uint32, reduce_op="min",
                     read_at="src", write_at="dst", identity=INF)
    comm = GluonComm(pg, [spec], CommConfig(update_only=True))
    labels = FieldViews(
        [np.full(p.num_local, INF, dtype=np.uint32) for p in pg.parts]
    )
    for v, val in writes:
        for p in pg.parts:
            l = p.global_to_local[v]
            if l >= 0 and (p.has_in_edges()[l] or p.is_master[l]):
                if val < labels[p.pid][l]:
                    labels[p.pid][l] = val
                    comm.mark_updated("x", p.pid, [l])
    sync(comm, "x", labels)
    msgs, changed = sync(comm, "x", labels)
    assert msgs == []
    assert len(changed) == 0

"""Property-based tests (hypothesis) for partitioning invariants.

These check the invariants the whole framework rests on, over arbitrary
random graphs: master uniqueness, edge conservation, exchange-list symmetry,
and each policy's structural invariant.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.gen import SHAPES, build_shape
from repro.graph import CSRGraph, from_edges
from repro.partition import POLICIES, base, partition
from repro.partition.base import build_partitions

MAX_V = 60


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=MAX_V))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return from_edges(src, dst, num_vertices=n)


@st.composite
def graph_and_parts(draw):
    g = draw(graphs())
    p = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    return g, p


@given(gp=graph_and_parts(), policy=st.sampled_from(sorted(POLICIES)))
@settings(max_examples=60, deadline=None)
def test_partition_structurally_valid(gp, policy):
    g, parts = gp
    pg = partition(g, policy, parts, cache=False)
    pg.validate()


@given(gp=graph_and_parts(), policy=st.sampled_from(sorted(POLICIES)))
@settings(max_examples=40, deadline=None)
def test_gather_reconstructs_identity(gp, policy):
    g, parts = gp
    pg = partition(g, policy, parts, cache=False)
    labels = [p.local_to_global.astype(np.int64) for p in pg.parts]
    assert np.array_equal(
        pg.gather_master_labels(labels), np.arange(g.num_vertices)
    )


@given(gp=graph_and_parts())
@settings(max_examples=40, deadline=None)
def test_oec_invariant_holds(gp):
    g, parts = gp
    pg = partition(g, "oec", parts, cache=False)
    for p in pg.parts:
        assert not np.any(p.has_out_edges() & ~p.is_master)


@given(gp=graph_and_parts())
@settings(max_examples=40, deadline=None)
def test_iec_invariant_holds(gp):
    g, parts = gp
    pg = partition(g, "iec", parts, cache=False)
    for p in pg.parts:
        assert not np.any(p.has_in_edges() & ~p.is_master)


@given(gp=graph_and_parts())
@settings(max_examples=40, deadline=None)
def test_cvc_invariants_hold(gp):
    g, parts = gp
    pg = partition(g, "cvc", parts, cache=False)
    pr, pc = pg.grid
    for p in pg.parts:
        row, col = p.pid // pc, p.pid % pc
        out_g = p.local_to_global[p.has_out_edges()]
        in_g = p.local_to_global[p.has_in_edges()]
        assert np.all(pg.vertex_owner[out_g] // pc == row)
        assert np.all(pg.vertex_owner[in_g] % pc == col)


@given(gp=graph_and_parts(), policy=st.sampled_from(sorted(POLICIES)))
@settings(max_examples=40, deadline=None)
def test_local_degrees_sum_to_global(gp, policy):
    """Per-vertex out-degree summed over partitions equals global degree."""
    g, parts = gp
    pg = partition(g, policy, parts, cache=False)
    acc = np.zeros(g.num_vertices, dtype=np.int64)
    for p in pg.parts:
        np.add.at(acc, p.local_to_global, p.graph.out_degrees())
    assert np.array_equal(acc, g.out_degrees())


# --------------------------------------------------------------------- #
# bucketing: slices of the CSR when owners ascend, a permutation otherwise
# --------------------------------------------------------------------- #


@st.composite
def multigraphs(draw):
    """Self-loops, parallel edges, |E| = 0 and |V| = 1 are common; weights
    (all distinct) and dst-sorted rows are drawn — unsorted rows are a
    hand-built CSR."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    ids = st.integers(0, n - 1)
    src = np.sort(np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64))
    dst = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    if draw(st.booleans()):
        dst = dst[np.lexsort((dst, src))]
    weights = np.arange(m, 0, -1) if draw(st.booleans()) else None
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return CSRGraph(indptr, dst, weights)


def _partition_arrays(pg):
    out = [pg.vertex_owner]
    for part in pg.parts:
        g = part.graph
        out += [g.indptr, g.indices, g.weights, part.local_to_global,
                part.is_master]
        for exchange in (part.mirror_exchange, part.master_exchange):
            for q in sorted(exchange):
                out += [np.asarray([q]), exchange[q]]
    return out


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("parts", [1, 2, 3, 8])
@pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
@given(g=multigraphs())
@settings(max_examples=15, deadline=None)
def test_sliced_buckets_equal_argsort_buckets(policy, parts, g):
    """OEC's owners (and every policy's at P=1) ascend in CSR order and are
    taken as slices; forcing the stable-argsort bucketing changes nothing."""
    sliced = partition(g, policy, parts, cache=False)
    with mock.patch.object(base, "ascending", lambda owners: False):
        permuted = partition(g, policy, parts, cache=False)
    _assert_same_arrays(_partition_arrays(sliced), _partition_arrays(permuted))


@given(g=multigraphs(), parts=st.sampled_from([1, 2, 3, 8]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_build_partitions_equals_mask_bucketing(g, parts, data):
    """Against a reference that shares nothing with the build: a boolean
    mask per partition (stable by definition), ``np.union1d`` for the proxy
    set, ``np.lexsort`` for the local CSR — owners ascending or not."""
    n, m = g.num_vertices, g.num_edges
    owners = st.integers(0, parts - 1)
    vertex_owner = np.asarray(data.draw(st.lists(owners, min_size=n, max_size=n)))
    edge_owner = np.asarray(data.draw(st.lists(owners, min_size=m, max_size=m)))
    if data.draw(st.booleans()):
        edge_owner.sort()
    pg = build_partitions(g, vertex_owner, edge_owner, parts, "drawn")
    src = g.edge_sources()
    for p, part in enumerate(pg.parts):
        sel = edge_owner == p
        s, d = src[sel], g.indices[sel]
        l2g = np.union1d(np.flatnonzero(vertex_owner == p), np.concatenate([s, d]))
        g2l = np.full(n, -1, dtype=np.int32)
        g2l[l2g] = np.arange(len(l2g))
        order = np.lexsort((g2l[d], g2l[s]))
        counts = np.bincount(g2l[s], minlength=len(l2g))
        np.testing.assert_array_equal(part.local_to_global, l2g)
        np.testing.assert_array_equal(part.to_local(np.arange(n)), g2l)
        np.testing.assert_array_equal(part.is_master, vertex_owner[l2g] == p)
        np.testing.assert_array_equal(part.graph.indptr, np.concatenate(([0], np.cumsum(counts))))
        np.testing.assert_array_equal(part.graph.indices, g2l[d][order])
        if g.weights is None:
            assert part.graph.weights is None
        else:
            np.testing.assert_array_equal(part.graph.weights, g.weights[sel][order])


@pytest.mark.parametrize("parts", [1, 2, 7])
@pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
@given(
    shape=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_to_local_is_the_dense_inverse(policy, parts, shape, seed, data):
    """``to_local`` against the ``|V|``-long map it replaced, built here:
    every global id, both ends just outside the range (-1 and ``|V|``),
    and a drawn batch with repeats, as an array and one id at a time.  The
    fuzz shapes bring empty graphs and partitions that hold no vertex."""
    g = build_shape(shape, np.random.default_rng(seed))
    n = g.num_vertices
    pg = partition(g, policy, parts, cache=False)
    drawn = data.draw(st.lists(st.integers(-1, n), max_size=24))
    queries = np.concatenate(
        [np.arange(n), [-1, n], np.repeat(drawn, 2)]
    ).astype(np.int64)
    inside = (queries >= 0) & (queries < n)
    for part in pg.parts:
        dense = np.full(n + 1, -1, dtype=np.int64)  # dense[n]: "not here"
        dense[part.local_to_global] = np.arange(part.num_local)
        want = dense[np.where(inside, queries, n)]
        got = part.to_local(queries)
        assert got.shape == queries.shape
        np.testing.assert_array_equal(got, want)
        for q in (-1, n, *drawn[:4]):
            one = part.to_local(q)
            assert np.ndim(one) == 0 and one == want[list(queries).index(q)]


# --------------------------------------------------------------------- #
# the runtime invariant checkers, property-tested (PR 4)
# --------------------------------------------------------------------- #
# ``check_partition`` at FULL re-derives every structural invariant above
# (and more: edge multiset conservation, per-policy placement rules) from
# the partitioned structure alone.  Running it over arbitrary graphs for
# every policy x partition count — including the awkward prime P=5 that
# CVC pads into a ragged grid — is the standing guarantee that ``--check``
# never false-positives on a healthy partitioning.

from repro.check import CheckLevel, check_partition, check_partition_request


@st.composite
def graph_and_any_parts(draw):
    g = draw(graphs())
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    return g, p


@given(gp=graph_and_any_parts(), policy=st.sampled_from(sorted(POLICIES)))
@settings(max_examples=60, deadline=None)
def test_checkers_accept_every_healthy_partition(gp, policy):
    g, parts = gp
    pg = partition(g, policy, parts, cache=False)
    check_partition_request(pg, policy, parts)
    check_partition(pg, CheckLevel.FULL)


@given(gp=graph_and_any_parts(), policy=st.sampled_from(sorted(POLICIES)))
@settings(max_examples=25, deadline=None)
def test_checkers_reject_mirror_promotion(gp, policy):
    """Promoting any mirror to master must always be caught at CHEAP."""
    import pytest

    from repro.errors import InvariantViolation

    g, parts = gp
    pg = partition(g, policy, parts, cache=False)
    victims = [p for p in pg.parts if not p.is_master.all()]
    if not victims:
        return  # no mirrors anywhere (e.g. P=1): nothing to corrupt
    part = victims[0]
    part.is_master[int(np.flatnonzero(~part.is_master)[0])] = True
    pg.__dict__.pop("_check_level_done", None)
    with pytest.raises(InvariantViolation):
        check_partition(pg, CheckLevel.CHEAP)

"""Property tests for the edge-ordering primitive (repro.graph.order).

The contract is one sentence: ``order_edges`` returns what
``np.lexsort((dst, src))`` applied to src / dst / weights returns — on
every branch it may take (ordered check, value sort, packed stable sort,
timsort, lexsort fallback), which the inputs below are shaped to reach.
The CSR builds on top of it (``csr_arrays``, ``make_undirected``) are held
to the CSR of that reference, array for array, and to a memory budget.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import rmat
from repro.graph import CSRGraph, add_random_weights, from_edges, make_undirected
from repro.graph import order as order_mod
from repro.graph.order import csr_arrays, order_edges
from repro.partition.base import build_partitions
from repro.partition.edgecut import blocked_owner_from_degrees


def lexsort_reference(src, dst, weights, dedup):
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    weights = None if weights is None else weights[order]
    if dedup and len(src):
        keep = np.concatenate(
            ([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]))
        )
        src, dst = src[keep], dst[keep]
        weights = None if weights is None else weights[keep]
    return src, dst, weights


def assert_matches_lexsort(src, dst, n, weighted, dedup):
    # distinct weights: an unstable tie-break moves one and is seen
    weights = np.arange(len(src), dtype=np.uint32)[::-1].copy() if weighted else None
    before = (src.copy(), dst.copy(), None if weights is None else weights.copy())
    got = order_edges(src, dst, n, weights, dedup)
    want = lexsort_reference(src, dst, weights, dedup)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)
    # the inputs are read, never written
    for mine, kept in zip((src, dst, weights), before):
        if kept is not None:
            np.testing.assert_array_equal(mine, kept)


@st.composite
def edge_lists(draw, max_n=12, max_m=60):
    """Few vertices, many edges: duplicates and ties are the common case."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ids = st.integers(0, n - 1)
    src = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    shape = draw(st.sampled_from(["random", "ordered", "reversed", "all-dup"]))
    if shape == "all-dup" and m:
        src[:], dst[:] = src[0], dst[0]
    elif shape != "random":
        order = np.lexsort((dst, src))
        if shape == "reversed":
            order = order[::-1]
        src, dst = src[order], dst[order]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return src.astype(dtype), dst.astype(dtype), n


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.booleans(), st.booleans())
def test_equals_lexsort(edges, weighted, dedup):
    src, dst, n = edges
    assert_matches_lexsort(src, dst, n, weighted, dedup)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize(
    "src, dst",
    [([], []), ([3], [1]), ([2, 2, 2], [1, 1, 1]), ([0, 0, 1], [0, 4, 2]),
     ([4, 1, 1, 0], [0, 3, 2, 4])],
    ids=["empty", "single", "all-duplicate", "ordered", "reversed"],
)
def test_named_shapes(src, dst, weighted, dedup):
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    assert_matches_lexsort(src, dst, 5, weighted, dedup)


def test_ordered_input_comes_back_untouched():
    """'Proof that no permutation is needed': the very same objects."""
    src, dst = np.array([0, 0, 1, 1, 3]), np.array([1, 1, 0, 2, 3])
    w = np.arange(5, dtype=np.uint32)
    s, d, ww = order_edges(src, dst, 4, w)
    assert s is src and d is dst and ww is w


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=40, max_m=40), edge_lists(max_n=40, max_m=8),
       st.booleans())
def test_sorted_base_plus_appended_batch(base, batch, weighted):
    """The serve shape: MutableGraph keeps a canonical edge list and
    appends each mutation batch at its end."""
    (bs, bd, n1), (ms, md, n2) = base, batch
    order = np.lexsort((bd, bs))
    src = np.concatenate([bs[order], ms]).astype(np.int64)
    dst = np.concatenate([bd[order], md]).astype(np.int64)
    assert_matches_lexsort(src, dst, max(n1, n2), weighted, dedup=False)


@st.composite
def edges_at_the_top(draw, n):
    """Vertex ids hugging both ends of ``[0, n)``: a wrapped key misorders."""
    m = draw(st.integers(0, 24))
    ids = st.one_of(st.integers(0, 3), st.integers(n - 4, n - 1))
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


@pytest.mark.parametrize("n", [2**31, 2**31 + 7, 3037000499, 3037000500, 2**40])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), weighted=st.booleans(), dedup=st.booleans())
def test_declared_size_beyond_int32_does_not_wrap(n, data, weighted, dedup):
    src, dst = data.draw(edges_at_the_top(n))
    assert_matches_lexsort(src, dst, n, weighted, dedup)


@pytest.mark.parametrize("n, falls_back", [(3037000499, False), (3037000500, True),
                                           (2**40, True)])
def test_lexsort_is_the_fallback_exactly_when_the_key_overflows(
    monkeypatch, n, falls_back
):
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    src = np.array([n - 1, 0, n - 1, 2], dtype=np.int64)
    dst = np.array([n - 1, 1, 0, n - 1], dtype=np.int64)
    s, d, _ = order_edges(src, dst, n)
    assert (s.tolist(), d.tolist()) == (
        [0, 2, n - 1, n - 1], [1, n - 1, 0, n - 1]
    )
    assert bool(calls) == falls_back


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=50), st.sampled_from([10, 2**62]))
def test_stable_sort_branches_agree_with_argsort(keys, span):
    """Packed (key, position) value sort below the 63-bit limit, timsort
    above it — both are ``argsort(kind="stable")``."""
    key = np.asarray(keys, dtype=np.int64)
    payload = np.arange(len(key))
    order = np.argsort(key, kind="stable")
    want_key = key[order]
    got = order_mod._stable_sort(key, span, payload)
    np.testing.assert_array_equal(key, want_key)  # sorted in place
    np.testing.assert_array_equal(got, order)


# --------------------------------------------------------------------- #
# the CSR builds: csr_arrays and make_undirected
# --------------------------------------------------------------------- #
#: SCAN_BLOCK values: block edges at every position, and one block
BLOCKS = [1, 2, 3, 1 << 19]


def lexsort_csr(src, dst, n, weights, dedup):
    """The CSR of the lexsort reference: offsets from a bincount."""
    s, d, w = lexsort_reference(src, dst, weights, dedup)
    counts = np.bincount(s, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, d.astype(np.int32), w


def assert_same_csr(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


#: stand-ins for the int64 limit: the real one; one that holds every
#: ``src * |V| + dst`` of ``edge_lists`` but no ``key * |E| + position``
#: (the stable sort's timsort branch); none at all (lexsort, doubled columns)
LIMITS = [None, 12 * 12, 0]


def _patched(block, limit):
    extra = {} if limit is None else {"_INT64_MAX": limit}
    return mock.patch.multiple(order_mod, SCAN_BLOCK=block, **extra)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.booleans(), st.booleans(), st.sampled_from(BLOCKS),
       st.sampled_from(LIMITS))
def test_csr_arrays_equal_the_lexsort_csr(edges, weighted, dedup, block, limit):
    src, dst, n = edges
    weights = np.arange(len(src), dtype=np.uint32)[::-1].copy() if weighted else None
    before = None if weights is None else weights.copy()
    with _patched(block, limit):
        got = csr_arrays(src, dst, n, weights, dedup)
    assert_same_csr(got, lexsort_csr(src, dst, n, weights, dedup))
    if weights is not None:
        np.testing.assert_array_equal(weights, before)
        assert not np.shares_memory(got[2], weights)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.booleans(), st.sampled_from(BLOCKS), st.sampled_from(LIMITS))
def test_make_undirected_equals_doubled_from_edges(edges, weighted, block, limit):
    """``make_undirected(g)`` is ``from_edges([src; dst], [dst; src],
    dedup=True)``: a reciprocal pair keeps its forward edge's weight.  The
    input is a hand-built CSR whose rows keep their draw order."""
    src, dst, n = edges
    by_row = np.argsort(src, kind="stable")
    src, dst = src[by_row], dst[by_row]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    w = np.arange(len(src), dtype=np.uint32)[::-1] + 1 if weighted else None
    g = CSRGraph(indptr, dst, w)
    with _patched(block, limit):
        got = make_undirected(g)
    s2, d2 = np.concatenate([src, dst]), np.concatenate([dst, src])
    w2 = None if w is None else np.concatenate([g.weights, g.weights])
    assert_same_csr(
        (got.indptr, got.indices, got.weights), lexsort_csr(s2, d2, n, w2, True)
    )
    assert got == from_edges(s2, d2, num_vertices=n, weights=w2, dedup=True)


# --------------------------------------------------------------------- #
# what a build holds: traced peak bytes per output edge
# --------------------------------------------------------------------- #
# Each bound sits between the build before the CSR core (doubled columns,
# a full-length position array, divmod-decoded int64 columns, an int64
# identity permutation of the partition buckets: 48.4 / 36.7 / 13.0 B per
# edge here) and after it (19.7 / 18.8 / 9.1).  The returned graph counts:
# indices and weights alone are 8 B per edge.  Blocks are shrunk so the
# blockwise passes are as small against |E| as they are on the benchmark.


@pytest.fixture(scope="module")
def weighted_rmat():
    return add_random_weights(rmat(13, edge_factor=16, seed=7), seed=1)


def traced_peak_per_edge(build, monkeypatch) -> float:
    monkeypatch.setattr(order_mod, "SCAN_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parts = getattr(out, "parts", None)
    edges = sum(p.graph.num_edges for p in parts) if parts else out.num_edges
    return peak / edges


def test_make_undirected_holds_one_key(weighted_rmat, monkeypatch):
    assert traced_peak_per_edge(
        lambda: make_undirected(weighted_rmat), monkeypatch
    ) < 24


def test_build_partitions_slices_ascending_owners(weighted_rmat, monkeypatch):
    g = weighted_rmat
    owner = blocked_owner_from_degrees(g.out_degrees(), 2)
    edge_owner = np.repeat(owner, g.out_degrees())
    assert traced_peak_per_edge(
        lambda: build_partitions(g, owner, edge_owner, 2, "oec"), monkeypatch
    ) < 24


def test_from_edges_on_ordered_input_costs_a_block(weighted_rmat, monkeypatch):
    g = weighted_rmat
    src = g.edge_sources()
    assert traced_peak_per_edge(
        lambda: from_edges(src, g.indices, g.num_vertices, g.weights), monkeypatch
    ) < 11

"""Property tests for the edge-ordering primitive (repro.graph.order).

The contract is one sentence: ``order_edges`` returns what
``np.lexsort((dst, src))`` applied to src / dst / weights returns — on
every branch it may take (ordered check, value sort, packed stable sort,
timsort, lexsort fallback), which the inputs below are shaped to reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import order as order_mod
from repro.graph.order import order_edges


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

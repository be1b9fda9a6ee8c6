"""The sort-free frontier kernels against their references.

``repro.idset`` answers "which IDs of ``[0, n)`` occur in this stream"
either with ``np.unique`` or with an O(n) flag array, chosen from the two
lengths by ``DENSE_DIVISOR``; ``expand_edges`` slices the CSR arrays when
the frontier's edge ranges are consecutive and gathers otherwise.  Both
choices must be invisible: same elements, same order, same dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import idset
from repro.apps import bc, bfs, kcore
from repro.errors import ConfigurationError, GraphFormatError
from repro.fuzz.gen import SHAPES, build_shape
from repro.generators.chunked import build_store
from repro.graph import from_edges
from repro.graph.expand import block_edge_budget, expand_edges
from repro.la import semiring, spmv
from repro.runtime.cells import CellSpec, SystemSpec
from repro.runtime.sweep import SweepExecutor

D = idset.DENSE_DIVISOR


# --------------------------------------------------------------------- #
# the primitive against np.unique / the touched-set formulation
# --------------------------------------------------------------------- #


@st.composite
def id_streams(draw):
    """``(ids, n)`` with the stream length on both sides of the density
    constant, exactly at it, empty, and all-duplicates."""
    n = draw(st.integers(1, 4 * D))
    boundary = -(-n // D)  # smallest length on the dense side
    length = draw(st.one_of(
        st.just(0),
        st.just(boundary),
        st.just(max(boundary - 1, 0)),
        st.integers(0, 3 * n),
    ))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    if draw(st.booleans()):
        ids = np.full(length, draw(st.integers(0, n - 1)), dtype=dtype)
    else:
        ids = np.asarray(
            draw(st.lists(st.integers(0, n - 1),
                          min_size=length, max_size=length)),
            dtype=dtype,
        )
    return ids, n


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


@given(id_streams())
@settings(max_examples=200, deadline=None)
def test_unique_ids_equals_np_unique(stream):
    ids, n = stream
    _same(idset.unique_ids(ids, n), np.unique(ids))


def _reference_changed(op, labels, targets, values):
    """The pre-primitive formulation, np.unique and all."""
    if len(targets) == 0:
        return np.empty(0, dtype=np.int64)
    ufunc = idset.SCATTER_UFUNCS[op]
    touched = np.unique(targets)
    if op == "add":
        ufunc.at(labels, targets, values)
        return touched
    old = labels[touched].copy()
    ufunc.at(labels, targets, values)
    cmp = {"min": np.less, "max": np.greater, "or": np.not_equal}[op]
    return touched[cmp(labels[touched], old)]


@given(
    stream=id_streams(),
    op=st.sampled_from(["min", "max", "add", "or"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_scatter_changed_equals_touched_formulation(stream, op, seed):
    targets, n = stream
    rng = np.random.default_rng(seed)
    if op == "or":
        labels = rng.integers(0, 2, n).astype(bool)
        values = rng.integers(0, 2, len(targets)).astype(bool)
    elif op == "add":
        labels = rng.random(n)
        values = rng.random(len(targets))
    else:
        labels = rng.integers(0, 8, n).astype(np.uint32)
        values = rng.integers(0, 8, len(targets)).astype(np.uint32)
    expect_labels = labels.copy()
    expect = _reference_changed(op, expect_labels, targets, values)

    got_labels = labels.copy()
    _same(idset.scatter_changed(op, got_labels, targets, values), expect)
    assert got_labels.tobytes() == expect_labels.tobytes()


def test_loop_and_la_scatters_are_one_code_path():
    """The apps (bfs-do's pull, bc, kcore) and the la kernels scatter
    through the one primitive: the same object, not an alias of it."""
    for app in (bc, bfs, kcore):
        assert app.scatter_changed is idset.scatter_changed
    assert spmv.scatter_changed is idset.scatter_changed


def test_backend_scatter_delegates_to_the_primitive(monkeypatch):
    """Not merely equal results: ``spmsv_push`` *calls*
    ``scatter_changed`` (every push kernel shares one extraction)."""
    seen = []

    def spy(op, *args, **kwargs):
        seen.append(op)
        return idset.scatter_changed(op, *args, **kwargs)

    monkeypatch.setattr(spmv, "scatter_changed", spy)
    g = from_edges([0, 0, 0], [1, 1, 2], num_vertices=3, name="fan")
    out = np.array([2, 5, 3], dtype=np.uint32)
    changed, edges = spmv.spmsv_push(
        g, np.array([0]), out, out, semiring.MIN_PLUS
    )
    assert seen == ["min"] and edges == 3
    np.testing.assert_array_equal(changed, [1])
    np.testing.assert_array_equal(out, [2, 3, 3])


def test_min_ignores_untouched_nan():
    """Copy-and-compare must not report an untouched NaN as changed."""
    labels = np.array([np.nan, 5.0, np.nan, 7.0])
    targets = np.array([1, 1, 3])  # 3 * D >= 4: the dense side
    values = np.array([4.0, 6.0, 9.0])
    np.testing.assert_array_equal(
        idset.scatter_changed("min", labels, targets, values), [1]
    )


def test_unknown_scatter_op_is_typed():
    with pytest.raises(ConfigurationError):
        idset.scatter_changed(
            "xor", np.zeros(2), np.array([0]), np.array([1.0])
        )


# --------------------------------------------------------------------- #
# expand_edges: slice fast path vs gather vs a per-vertex loop
# --------------------------------------------------------------------- #


def _loop_expansion(g, frontier):
    counts, dsts, ws = [], [], []
    for v in frontier.tolist():
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        counts.append(hi - lo)
        dsts.extend(np.asarray(g.indices[lo:hi]).tolist())
        ws.extend(np.asarray(g.weights[lo:hi]).tolist())
    return (np.asarray(counts, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(ws, dtype=g.weights.dtype))


def _gather_expansion(g, frontier):
    """The general path, forced: per-edge CSR positions, then a gather."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    pos = np.cumsum(counts) - counts
    eidx = np.repeat(starts - pos, counts) + np.arange(int(counts.sum()))
    return counts, g.indices[eidx].astype(np.int64), g.weights[eidx]


def _frontiers(g):
    n = g.num_vertices
    deg = g.out_degrees()
    zero = np.flatnonzero(deg == 0)
    some = np.flatnonzero(deg > 0)
    yield np.empty(0, dtype=np.int64)
    yield np.arange(n, dtype=np.int64)                 # one CSR range
    yield np.arange(0, n, 2, dtype=np.int64)           # strided
    yield np.arange(n, dtype=np.int64)[::-1].copy()    # unsorted
    yield some.astype(np.int64)                        # skips zero-degree
    yield zero.astype(np.int64)                        # nothing to expand
    if n:
        yield np.array([n - 1], dtype=np.int64)
        yield np.array([0, 0], dtype=np.int64)         # duplicate vertex
    if len(zero) and len(some):
        # zero-degree vertices at both ends and in the middle
        mid = some[: len(some) // 2 + 1]
        rest = some[len(some) // 2 + 1:]
        yield np.sort(np.concatenate(
            ([zero[0]], mid, zero[:2], rest, [zero[-1]])
        )).astype(np.int64)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_expand_edges_paths_agree(shape):
    g = build_shape(shape, np.random.default_rng(17))
    for frontier in _frontiers(g):
        counts, dsts, w = expand_edges(g, frontier, with_weights=True)
        for ref in (_loop_expansion, _gather_expansion):
            r_counts, r_dsts, r_w = ref(g, frontier)
            np.testing.assert_array_equal(counts, r_counts)
            _same(dsts, r_dsts)
            _same(np.asarray(w), np.asarray(r_w))
        _, dsts3, none = expand_edges(g, frontier)
        assert none is None
        _same(dsts3, dsts)


def test_expand_edges_zero_edges_keeps_weight_dtype():
    g = from_edges([0, 0], [1, 2], num_vertices=4, weights=[7, 9])
    for frontier in (np.empty(0, dtype=np.int64), np.array([3])):
        _, dsts, w = expand_edges(g, frontier, with_weights=True)
        assert len(dsts) == 0 and len(w) == 0
        assert w.dtype == g.weights.dtype
    _, _, w = expand_edges(g, np.array([0]), with_weights=True)
    assert w.dtype == g.weights.dtype


def test_expand_edges_weights_of_unweighted_graph_is_typed():
    g = from_edges([0], [1], num_vertices=2)
    with pytest.raises(GraphFormatError):
        expand_edges(g, np.array([0]), with_weights=True)


# --------------------------------------------------------------------- #
# outside input: REPRO_BLOCK_EDGES, sssp on an unweighted store
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("raw", ["abc", " ", "0", "-5"])
def test_block_edge_budget_rejects_malformed(monkeypatch, raw):
    monkeypatch.setenv("REPRO_BLOCK_EDGES", raw)
    with pytest.raises(ConfigurationError, match="REPRO_BLOCK_EDGES"):
        block_edge_budget()


def test_unweighted_sssp_cell_is_a_missing_point(tmp_path):
    """sssp on a store without weights: the sweep records an
    ``unsupported`` cell like any other impossible combination — no
    exception escapes ``SweepExecutor.map``."""
    path = str(tmp_path / "unweighted.csr")
    build_store("rmat", 8, path, weight_seed=None)
    cells = [
        CellSpec(
            key=(app,),
            system=SystemSpec.dirgl(policy="oec", execution="sync"),
            benchmark=app,
            dataset=f"store+mmap:{path}",
            num_gpus=2,
            check_memory=False,
        )
        for app in ("sssp", "bfs")
    ]
    with SweepExecutor(jobs=1) as ex:
        sssp, bfs = ex.map(cells)
    assert not sssp.ok and sssp.failure_kind == "unsupported"
    assert "weights" in sssp.failure
    assert bfs.ok, bfs.failure

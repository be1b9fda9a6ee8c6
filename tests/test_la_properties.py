"""Property-based tests for the LA core (hypothesis).

Three families:

1. **Semiring axioms** — the add monoid's identity is neutral and its
   operation associative; the multiplicative annihilator annihilates.
   Exact where the algebra is exact (min on any dtype, add on ints),
   tolerance-based only where float addition makes bitwise associativity
   mathematically false.
2. **SpMSpV vs a dense reference** — ``spmsv_push`` on random CSR
   graphs must equal an edge-by-edge scalar reference *exactly*, under
   any block budget.  The reference reads every source value before it
   writes anything and walks edges in the same expansion order, which is
   exactly the read-once and order-sensitivity contract docs/kernels.md
   defines.
3. **Push/pull duality** — at every frontier density (every prefix of
   the vertex set, empty through full) a push scatter and a
   frontier-masked pull reduction must agree exactly.  This is the
   algebraic fact the direction selector relies on when it switches.
4. **The pull round moves each edge once** — ``spmv_pull`` (operand
   widened per vertex, gathered row block by row block into the plan's
   workspace) and the weighted push (widened before ``np.repeat``) equal
   the per-edge formulas they replaced, byte for byte, at every budget.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import use_check_level
from repro.check.oracle import pull_reference
from repro.errors import ConfigurationError, GraphFormatError, InvariantViolation
from repro.fuzz.gen import SHAPES, build_shape
from repro.graph.builder import from_edges
from repro.graph.expand import expand_edges
from repro.la.semiring import (
    MIN_FIRST,
    MIN_PLUS,
    PLUS_TIMES,
    Monoid,
)
from repro.la.spmv import PullPlan, segment_reduce, spmsv_push, spmv_pull

# -------------------------------------------------------------------- #
# strategies
# -------------------------------------------------------------------- #
_SEMIRINGS = (MIN_PLUS, MIN_FIRST, PLUS_TIMES)
_INT_DTYPES = (np.int64, np.uint32)
_FLOAT_DTYPES = (np.float32, np.float64)


def _arrays(draw, dtype, lo, hi, size=None):
    n = size if size is not None else draw(st.integers(1, 16))
    vals = draw(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    )
    return np.asarray(vals, dtype=dtype)


@st.composite
def graphs(draw):
    """A small random multigraph with uint32 weights and int64 values."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 30))
    src = _arrays(draw, np.int64, 0, n - 1, size=m)
    dst = _arrays(draw, np.int64, 0, n - 1, size=m)
    w = _arrays(draw, np.uint32, 1, 9, size=m)
    g = from_edges(src, dst, num_vertices=n, weights=w, name="prop")
    x = _arrays(draw, np.int64, 0, 100, size=n)
    return g, x


# -------------------------------------------------------------------- #
# 1. semiring axioms
# -------------------------------------------------------------------- #
@pytest.mark.parametrize("sr", _SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("dtype", _INT_DTYPES + _FLOAT_DTYPES,
                         ids=lambda d: np.dtype(d).name)
@given(vals=st.lists(st.integers(0, 1000), min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_add_identity_is_neutral(sr, dtype, vals):
    """``add(identity, x) == x`` for every catalog monoid, any dtype."""
    x = np.asarray(vals, dtype=dtype)
    ident = sr.add.identity(dtype)
    merged = sr.add.ufunc(np.full_like(x, ident), x)
    assert merged.tobytes() == x.astype(merged.dtype).tobytes()


@pytest.mark.parametrize("sr", [MIN_PLUS, MIN_FIRST], ids=lambda s: s.name)
@given(
    a=st.integers(0, 10**6), b=st.integers(0, 10**6), c=st.integers(0, 10**6)
)
@settings(max_examples=50, deadline=None)
def test_add_monoid_associative_exact(sr, a, b, c):
    """min is exactly associative on int64, float32, and bool."""
    for dtype in (np.int64, np.float32, bool):
        f = sr.add.ufunc
        x, y, z = (np.asarray(v, dtype=dtype) for v in (a, b, c))
        assert f(f(x, y), z) == f(x, f(y, z))


@given(
    a=st.floats(-1e6, 1e6, width=32),
    b=st.floats(-1e6, 1e6, width=32),
    c=st.floats(-1e6, 1e6, width=32),
)
@settings(max_examples=50, deadline=None)
def test_plus_monoid_associative_int_exact_float_close(a, b, c):
    """``add`` is exact on ints; on float32 only close — which is *why*
    the bit-identity contract pins a summation order instead of relying
    on associativity (docs/kernels.md)."""
    f = PLUS_TIMES.add.ufunc
    ia, ib, ic = (np.int64(round(v)) for v in (a, b, c))
    assert f(f(ia, ib), ic) == f(ia, f(ib, ic))
    fa, fb, fc = (np.float32(v) for v in (a, b, c))
    # close relative to the operands, not the result: cancellation
    # (925015 - 928138 + 1.59) leaves a sum far smaller than its error
    scale = max(abs(a), abs(b), abs(c))
    assert np.isclose(f(f(fa, fb), fc), f(fa, f(fb, fc)), rtol=1e-5,
                      atol=1e-5 * scale)


@pytest.mark.parametrize("sr", _SEMIRINGS, ids=lambda s: s.name)
@given(x=st.integers(0, 1000), w=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_annihilator_annihilates(sr, x, w):
    """``mult(a, x) == a`` for the add identity ``a`` of every catalog
    semiring: it is the multiplicative annihilator too (float dtypes:
    saturating INF only exists there for min-plus)."""
    wv = float(w)
    a = sr.add.identity(np.float64)
    # the plain semiring multiply, in the float dtype where INF saturates
    product = {"plus": a + wv, "first": a, "times": a * wv}[sr.mult]
    assert product == a


@pytest.mark.parametrize("dtype", _INT_DTYPES + _FLOAT_DTYPES,
                         ids=lambda d: np.dtype(d).name)
def test_maxval_sentinel_resolves_per_dtype(dtype):
    m = Monoid("min", "maxval")
    ident = m.identity(dtype)
    assert ident.dtype == np.dtype(dtype)
    if np.dtype(dtype).kind in "iu":
        assert ident == np.iinfo(dtype).max
    else:
        assert np.isinf(ident)


# -------------------------------------------------------------------- #
# 2. SpMSpV vs dense reference
# -------------------------------------------------------------------- #
def _reference_push(graph, frontier, x, y, sr, with_weights):
    """Scalar edge-by-edge reference in the exact expansion order.

    Reads only ``x`` and writes only its own copy of ``y``, so it is
    read-once even when the caller passes the same array for both.
    """
    counts, dsts, w = expand_edges(graph, frontier, with_weights=with_weights)
    rep = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    out = y.copy()
    for i in range(len(dsts)):
        wv = None if w is None else w[i : i + 1]
        val = sr.combine(x[frontier[rep[i]] : frontier[rep[i]] + 1], wv,
                         y.dtype)
        out[dsts[i]] = sr.add.ufunc(out[dsts[i]], val[0])
    return out, dsts


@contextmanager
def _block_budget(budget):
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_BLOCK_EDGES", None)
        if budget is not None:
            os.environ["REPRO_BLOCK_EDGES"] = str(budget)
        yield


# "masked" and the "none" id date from the mask=/complement= parameters
# spmsv_push had until PR 14; both are kept so the test IDs the floor
# list names survive ("none" now reads: no block budget)
@pytest.mark.parametrize("budget", [None, 1, 4],
                         ids=["none", "budget1", "budget4"])
@pytest.mark.parametrize("sr,weighted", [(MIN_PLUS, True), (MIN_FIRST, False),
                                         (PLUS_TIMES, True)],
                         ids=["min-plus", "min-first", "plus-times"])
@given(gx=graphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_masked_spmsv_matches_dense_reference(sr, weighted, budget, gx, data):
    g, x = gx
    n = g.num_vertices
    fsize = data.draw(st.integers(0, n))
    frontier = np.arange(fsize, dtype=np.int64)
    if sr is PLUS_TIMES:
        x = x.astype(np.float64)
        y = np.zeros(n, dtype=np.float64)
    else:
        # the apps push a min vector into itself (dist, comp); sources
        # stay small so the +1/+w widen cannot wrap
        x = y = np.minimum(x, 100)
    x0, y0 = x.copy(), y.copy()
    with _block_budget(budget):
        changed, edges = spmsv_push(g, frontier, x, y, sr,
                                    with_weights=weighted)
    ref, dsts = _reference_push(g, frontier, x0, y0, sr, weighted)
    assert edges == len(dsts)
    assert y.tobytes() == ref.tobytes()
    if sr.add.op == "add":
        # add-scatters report *touched* destinations, not only
        # value-changing ones (0.0 contributions)
        assert np.array_equal(changed, np.unique(dsts))
    else:
        # min-scatters report exactly the strictly-improved entries
        assert np.array_equal(np.sort(changed), np.flatnonzero(y != y0))


# -------------------------------------------------------------------- #
# 3. push/pull duality at every frontier density
# -------------------------------------------------------------------- #
@pytest.mark.parametrize("sr,weighted", [(MIN_PLUS, True), (MIN_FIRST, False)],
                         ids=["min-plus", "min-first"])
@given(gx=graphs())
@settings(max_examples=25, deadline=None)
def test_push_pull_equivalent_at_every_density(sr, weighted, gx):
    """For every prefix frontier (density 0/n .. n/n), pushing the
    frontier's out-edges equals a pull over all rows masked to frontier
    membership — min scatters are order-free, so equality is exact."""
    g, x = gx
    n = g.num_vertices
    x = np.minimum(x, 100)
    ident = np.int64(sr.add.identity(np.int64))
    rows = np.arange(n, dtype=np.int64)
    rev = g.reverse()
    counts, parents, w = expand_edges(rev, rows, with_weights=weighted)
    rep = np.repeat(rows, counts)
    for fsize in range(n + 1):
        frontier = rows[:fsize]
        y_push = np.full(n, ident, dtype=np.int64)
        spmsv_push(g, frontier, x, y_push, sr, with_weights=weighted)
        member = parents < fsize  # prefix frontier membership
        vals = sr.combine(x[parents], w, np.int64)
        y_pull = segment_reduce(sr.add, vals[member], rep[member], n,
                                np.int64, identity=ident)
        assert y_push.tobytes() == y_pull.tobytes()


@given(gx=graphs())
@settings(max_examples=25, deadline=None)
def test_pull_plan_matches_push_for_plus_times(gx):
    """Plus-times over rows with in-neighbors (PullPlan's documented
    precondition — reduceat cannot represent empty segments): the cached
    pull gather equals per-destination sums of the push expansion.
    Integer-valued float64 makes any summation order exact, so push and
    pull must agree bitwise despite reducing in different orders."""
    g, x = gx
    n = g.num_vertices
    # integer-valued float64: any summation order is exact
    x = x.astype(np.float64)
    indeg = np.bincount(g.indices, minlength=n)
    rows = np.flatnonzero(indeg > 0).astype(np.int64)
    if not len(rows):
        return
    plan = PullPlan.build(g, rows)
    pulled = spmv_pull(plan, x, PLUS_TIMES)
    y = np.zeros(n, dtype=np.float64)
    spmsv_push(g, np.arange(n, dtype=np.int64), x, y, PLUS_TIMES)
    assert pulled.shape == (len(rows),)
    assert np.array_equal(pulled, y[rows])


def test_pull_plan_caches_expansion():
    g = from_edges([0, 1, 2], [1, 2, 0], num_vertices=3, name="tri")
    rows = np.arange(3, dtype=np.int64)
    plan = PullPlan.build(g, rows)
    assert plan.num_rows == 3
    assert len(plan.in_nbrs) == 3
    assert np.array_equal(plan.starts, [0, 1, 2])


# -------------------------------------------------------------------- #
# 4. the pull round moves each edge once
# -------------------------------------------------------------------- #
_BUDGETS = (None, 1, 7, 4096, 1 << 20)
#: segment lengths around numpy's pairwise-summation edges: the unrolled
#: 8-lane loop, the 128-element leaf and the recursive split above 8192
_ROW_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 8193, 20000)


def _parent_pull(plan, x):
    """The parent's pull, spelled out: gather float32, widen per edge."""
    return np.add.reduceat(x[plan.in_nbrs].astype(np.float64), plan.starts)


def _rows_graph(lengths, n, seed):
    """Row ``i`` pulls ``lengths[i]`` random in-neighbors out of ``n``."""
    rng = np.random.default_rng(seed)
    dst = np.repeat(np.arange(len(lengths)), lengths)
    src = rng.integers(0, n, len(dst))
    return from_edges(src, dst, num_vertices=n, name="rows")


@pytest.mark.parametrize("budget", _BUDGETS, ids=str)
def test_pull_equals_parent_formula_on_summation_edges(budget):
    g = _rows_graph(_ROW_LENGTHS, 512, seed=3)
    rows = np.arange(len(_ROW_LENGTHS), dtype=np.int64)
    # non-integer float32: every summation order rounds differently
    x = np.random.default_rng(4).random(512).astype(np.float32) / 3
    with _block_budget(budget):
        plan = PullPlan.build(g, rows)
        spmv_pull(plan, x[::-1].copy(), PLUS_TIMES)  # other values, same workspace
        got = spmv_pull(plan, x, PLUS_TIMES)
    assert got.tobytes() == _parent_pull(plan, x).tobytes()
    if budget is not None:
        assert len(plan.workspace) <= max(budget, max(_ROW_LENGTHS))
        assert all(e1 - e0 <= budget or r1 - r0 == 1
                   for r0, r1, e0, e1 in plan.blocks)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@given(seed=st.integers(0, 2**16), budget=st.sampled_from(_BUDGETS))
@settings(max_examples=12, deadline=None)
def test_pull_equals_parent_formula_on_fuzz_shapes(shape, seed, budget):
    g = build_shape(shape, np.random.default_rng(seed))
    rows = np.flatnonzero(g.in_degrees() > 0).astype(np.int64)
    x = np.random.default_rng(seed).random(g.num_vertices).astype(np.float32)
    with _block_budget(budget), use_check_level("full"):
        plan = PullPlan.build(g, rows)
        got = spmv_pull(plan, x, PLUS_TIMES)  # FULL: also the oracle
    assert got.dtype == np.float64
    assert got.tobytes() == _parent_pull(plan, x).tobytes()
    assert got.tobytes() == pull_reference(plan, x, PLUS_TIMES).tobytes()


def test_pull_plan_rejects_an_empty_row():
    """``reduceat`` hands an empty segment the *next* row's first value
    (or an IndexError on the last row): silently wrong at the parent."""
    g = from_edges([0, 0], [1, 3], num_vertices=4, name="gap")
    with pytest.raises(GraphFormatError, match="row 2 has no in-edges"):
        PullPlan.build(g, np.array([1, 2, 3]))
    with pytest.raises(GraphFormatError, match="row 0 has no in-edges"):
        PullPlan.build(g, np.array([1, 3, 0]))


def test_pull_rejects_an_operand_of_another_length():
    g = from_edges([0, 1], [1, 0], num_vertices=2, name="pair")
    plan = PullPlan.build(g, np.arange(2))
    with pytest.raises(ConfigurationError, match="3 entries"):
        spmv_pull(plan, np.ones(3, dtype=np.float32), PLUS_TIMES)


def test_full_check_catches_a_stale_workspace_tail():
    from repro.fuzz.mutations import pull_workspace_stale_tail

    g = _rows_graph((3, 5), 8, seed=1)
    x = np.random.default_rng(2).random(8).astype(np.float32) + 1
    with pull_workspace_stale_tail(), use_check_level("full"):
        plan = PullPlan.build(g, np.arange(2))
        with pytest.raises(InvariantViolation) as err:
            spmv_pull(plan, x, PLUS_TIMES)
    assert err.value.checker == "pull-differential"


def test_steady_state_pull_allocates_per_row_not_per_edge():
    import tracemalloc

    lengths = np.full(64, 4096)
    g = _rows_graph(lengths, 256, seed=5)  # 262 144 edges, 64 rows
    x = np.random.default_rng(6).random(256).astype(np.float32)
    plan = PullPlan.build(g, np.arange(64))
    spmv_pull(plan, x, PLUS_TIMES)  # the first call allocates the workspace
    ws = plan.workspace
    tracemalloc.start()
    out = spmv_pull(plan, x, PLUS_TIMES)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert plan.workspace is ws and not np.shares_memory(out, ws)
    # the widened operand (|V| float64) and the result (|rows| float64);
    # one per-edge float32 temporary would be 1 MiB
    assert peak < 16 * 1024


@pytest.mark.parametrize("budget", [None, 1, 4])
@given(gx=graphs(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_weighted_push_equals_parent_combine_chain(budget, gx, data):
    """min-plus near the top of uint32: the sum leaves 32 bits in the
    int64 accumulator and wraps on the way back, exactly as when the
    widening ran per edge."""
    g, _ = gx
    n = g.num_vertices
    top = np.iinfo(np.uint32).max
    x = data.draw(st.lists(st.integers(top - 12, top), min_size=n, max_size=n))
    x = np.asarray(x, dtype=np.uint32)
    frontier = np.flatnonzero(g.out_degrees() > 0).astype(np.int64)
    counts, dsts, w = expand_edges(g, frontier, with_weights=True)
    vals = np.repeat(x[frontier], counts).astype(np.int64)  # per edge
    vals = (vals + w.astype(np.int64)).astype(np.uint32)
    expect = x.copy()
    np.minimum.at(expect, dsts, vals)
    got = x.copy()
    with _block_budget(budget):
        _, edges = spmsv_push(g, frontier, got, got, MIN_PLUS,
                              with_weights=True)
    assert edges == len(dsts)
    assert got.tobytes() == expect.tobytes()

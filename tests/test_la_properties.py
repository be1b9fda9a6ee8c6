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
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import expand_edges
from repro.graph.builder import from_edges
from repro.la.semiring import (
    MIN_FIRST,
    MIN_PLUS,
    PLUS_TIMES,
    SEMIRINGS,
    Monoid,
)
from repro.la.spmv import PullPlan, segment_reduce, spmsv_push, spmv_pull

# -------------------------------------------------------------------- #
# strategies
# -------------------------------------------------------------------- #
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
@pytest.mark.parametrize("sr", list(SEMIRINGS.values()), ids=lambda s: s.name)
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
    assert np.isclose(f(f(fa, fb), fc), f(fa, f(fb, fc)), rtol=1e-5)


@pytest.mark.parametrize("sr", list(SEMIRINGS.values()), ids=lambda s: s.name)
@given(x=st.integers(0, 1000), w=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_annihilator_annihilates(sr, x, w):
    """``mult(annihilator, x) == annihilator``; coincides with the add
    identity for every catalog semiring (float dtypes: saturating INF
    only exists there for min-plus)."""
    dtype = np.float64
    wv = float(w)
    a = sr.annihilator(dtype)
    # the plain semiring multiply, in the float dtype where INF saturates
    product = {"plus": a + wv, "first": a, "times": a * wv}[sr.mult]
    assert product == a
    # and the add identity really is the annihilator
    assert a == sr.add.identity(dtype)


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

"""Differential suite: batch extraction vs the per-element oracle.

``GluonComm._extract`` (one ``SendBatch`` per call, NumPy bulk operations
over the exchange table) must be observationally identical to
``repro.check.oracle.extract_scalar`` (the per-element reference, one
sender at a time): same messages field-for-field once the batch is
materialised, same wire bytes, same dirty-bit state afterwards, same
label mutations (accumulator resets) — under AS and UO, with and without
address memoization and invariant filtering.  The batch message pricer
is held to the same standard against ``oracle.price_batch_scalar``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.oracle import extract_scalar, price_batch_scalar
from repro.comm import CommConfig, FieldSpec, FieldViews, GluonComm
from repro.comm.router import Router
from repro.graph import from_edges
from repro.hw import bridges, dgx2
from repro.partition import POLICIES, partition

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIELDS = [
    FieldSpec(name="dist", dtype=np.uint32, reduce_op="min",
              read_at="src", write_at="dst", identity=2**32 - 1),
    FieldSpec(name="acc", dtype=np.float64, reduce_op="add",
              read_at="none", write_at="dst", identity=0.0,
              reset_after_reduce=True),
    FieldSpec(name="rank", dtype=np.float32, reduce_op="add",
              read_at="src", write_at="master"),
]


def _fresh_comms(pg, config):
    """Two substrates over the same partitions: one the batch path
    extracts from, one the oracle does."""
    return GluonComm(pg, FIELDS, config), GluonComm(pg, FIELDS, config)


def _batch_messages(comm, field, phase, p, labels):
    return comm.messages(comm._extract(field, phase, range(p, p + 1), labels))


def _labels_for(pg, spec, rng):
    if np.issubdtype(np.dtype(spec.dtype), np.integer):
        return FieldViews([
            rng.integers(0, 1000, size=p.num_local).astype(spec.dtype)
            for p in pg.parts
        ])
    return FieldViews([
        rng.random(p.num_local).astype(spec.dtype) for p in pg.parts
    ])


def _apply_writes(comm, pg, field, writes):
    for p, ids in writes.items():
        if len(ids):
            comm.mark_updated(field, p, np.asarray(ids, dtype=np.int64))


def _assert_messages_equal(got, want):
    assert len(got) == len(want)
    for m, r in zip(got, want):
        assert m.header == r.header
        assert m.exchange_len == r.exchange_len
        assert m.scanned_elements == r.scanned_elements
        assert m.values.dtype == r.values.dtype
        np.testing.assert_array_equal(m.values, r.values)
        if r.positions is None:
            assert m.positions is None
        else:
            assert m.positions is not None
            np.testing.assert_array_equal(m.positions, r.positions)
        if r.explicit_ids is None:
            assert m.explicit_ids is None
        else:
            assert m.explicit_ids is not None
            np.testing.assert_array_equal(m.explicit_ids, r.explicit_ids)
        assert m.wire_bytes() == r.wire_bytes()


def _run_differential(g, policy, parts, config, seed):
    pg = partition(g, policy, parts, cache=False)
    vec, ref = _fresh_comms(pg, config)
    rng = np.random.default_rng(seed)
    all_msgs = []

    for spec in FIELDS:
        labels_v = _labels_for(pg, spec, np.random.default_rng(seed + 1))
        labels_r = [a.copy() for a in labels_v]
        writes = {
            # (a partition of a tiny graph can hold no proxy at all)
            p: np.unique(
                rng.integers(0, max(pg.parts[p].num_local, 1),
                             size=rng.integers(0, 30))
            )[: pg.parts[p].num_local]
            for p in range(pg.num_partitions)
        }
        _apply_writes(vec, pg, spec.name, writes)
        _apply_writes(ref, pg, spec.name, writes)
        for phase in ("reduce", "broadcast"):
            for p in range(pg.num_partitions):
                mv = _batch_messages(vec, spec.name, phase, p, labels_v)
                mr = extract_scalar(ref, spec.name, phase, p, labels_r)
                _assert_messages_equal(mv, mr)
                all_msgs.extend(mv)
                # dirty bits and label mutations must track identically
                assert vec.updated[spec.name][p] == ref.updated[spec.name][p]
                np.testing.assert_array_equal(labels_v[p], labels_r[p])
    return all_msgs


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "config",
    [
        CommConfig(update_only=True),
        CommConfig(update_only=False),
        CommConfig(update_only=True, memoize_addresses=False),
        CommConfig(update_only=False, memoize_addresses=False),
        CommConfig(update_only=True, invariant_filtering=False),
    ],
    ids=["uo", "as", "uo-ids", "as-ids", "uo-nofilter"],
)
def test_vectorized_matches_scalar(small_graph, policy, config):
    _run_differential(small_graph, policy, 4, config, seed=7)


@st.composite
def _scenario(draw):
    n = draw(st.integers(8, 60))
    m = draw(st.integers(n, 4 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    g = from_edges(src, dst, num_vertices=n)
    policy = draw(st.sampled_from(sorted(POLICIES)))
    parts = draw(st.sampled_from([2, 3, 4]))
    update_only = draw(st.booleans())
    memoize = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return g, policy, parts, update_only, memoize, seed


@given(s=_scenario())
@SETTINGS
def test_vectorized_matches_scalar_on_arbitrary_graphs(s):
    g, policy, parts, update_only, memoize, seed = s
    config = CommConfig(update_only=update_only, memoize_addresses=memoize)
    _run_differential(g, policy, parts, config, seed)


@pytest.mark.parametrize("cluster_fn", [bridges, dgx2], ids=["bridges", "dgx2"])
def test_batch_pricing_matches_per_message(small_graph, cluster_fn):
    """Router.price_batch must be bit-exact against the scalar legs."""
    pg = partition(small_graph, "cvc", 4, cache=False)
    config = CommConfig(update_only=True)
    vec, _ = _fresh_comms(pg, config)
    rng = np.random.default_rng(11)
    labels = _labels_for(pg, FIELDS[0], rng)
    for p in range(4):
        vec.mark_updated(
            "dist", p, rng.integers(0, pg.parts[p].num_local, size=40)
        )
    batch = vec.make_reduce_messages("dist", range(4), labels)
    msgs = vec.messages(batch)
    assert msgs, "workload produced no messages"
    router = Router(cluster_fn(4), volume_scale=500.0)
    ref = price_batch_scalar(router, msgs)
    # the batch's own columns and the Message-list adapter price alike
    for priced in (router.price_batch(batch), router.price_batch(msgs)):
        for name in ("src", "dst", "d2h", "inter", "h2d", "extraction",
                     "scaled_bytes"):
            np.testing.assert_array_equal(
                getattr(priced, name), getattr(ref, name), err_msg=name
            )


def test_uo_partner_with_no_dirty_elements_gets_no_message(small_graph):
    """Regression: a sender serving several partners must skip (not
    mis-slice) a partner whose segment has zero dirty proxies, and the
    scalar reference must agree."""
    pg = partition(small_graph, "iec", 4, cache=False)
    vec, ref = _fresh_comms(pg, CommConfig(update_only=True))
    # find a (phase, sender) whose table slice serves several partners
    found = None
    for phase in ("reduce", "broadcast"):
        table = vec._table("dist", phase)
        for p in range(4):
            if table.sender_seg[p + 1] - table.sender_seg[p] >= 2:
                found = found or (table, phase, p)
    assert found is not None, "no multi-partner sender in this partitioning"
    table, phase, sender = found
    segs = range(table.sender_seg[sender], table.sender_seg[sender + 1])
    # dirty exactly one partner's segment, leaving the others' empty
    lo, hi = table.seg_off[segs[0]], table.seg_off[segs[0] + 1]
    dirty_ids = table.flat_send[lo:hi]
    labels_v = _labels_for(pg, FIELDS[0], np.random.default_rng(3))
    labels_r = [a.copy() for a in labels_v]
    vec.mark_updated("dist", sender, dirty_ids)
    ref.mark_updated("dist", sender, dirty_ids)
    mv = _batch_messages(vec, "dist", phase, sender, labels_v)
    mr = extract_scalar(ref, "dist", phase, sender, labels_r)
    _assert_messages_equal(mv, mr)
    receivers = {m.header.dst for m in mv}
    # segments overlap (one proxy can serve several partners), so every
    # partner whose segment intersects the dirty set gets a message and
    # no other partner does
    dirty_set = set(int(i) for i in dirty_ids)
    for k in segs:
        seg = table.flat_send[table.seg_off[k]:table.seg_off[k + 1]]
        overlaps = any(int(i) in dirty_set for i in seg)
        assert (int(table.seg_dst[k]) in receivers) == overlaps
    assert vec.updated["dist"][sender] == ref.updated["dist"][sender]
    assert not vec.updated["dist"][sender].any()


def test_uo_extraction_with_nothing_dirty_is_empty(small_graph):
    pg = partition(small_graph, "iec", 4, cache=False)
    vec, ref = _fresh_comms(pg, CommConfig(update_only=True))
    labels = _labels_for(pg, FIELDS[0], np.random.default_rng(5))
    for p in range(4):
        assert _batch_messages(vec, "dist", "reduce", p, labels) == []
        assert extract_scalar(ref, "dist", "reduce", p, labels) == []
        assert not vec.pending_sends("dist", "reduce", p)

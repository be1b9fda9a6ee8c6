"""Differential suite: batch extraction vs the per-element oracle.

``GluonComm._extract`` over any table range — every sender (a BSP step),
one sender (a BASP local round), none — must materialise into exactly the
messages ``repro.check.oracle.extract_scalar`` extracts sender by sender:
the same messages field for field and wire bytes, pricing columns equal
to those messages' scalars, the same dirty bits and label mutations
afterwards.  :func:`assert_extraction_matches_oracle` is that one
differential: here over seven policies x UO / AS / explicit ids / no
filtering and drawn graphs, in ``tests/test_comm_batch.py`` over P in
{1, 2, 4, 8}, drawn graphs at those P and a graph with fewer vertices
than partitions.  :func:`extraction_cases` is the one generator.  The batch
pricer is held to ``oracle.price_batch_scalar``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.oracle import extract_scalar, price_batch_scalar
from repro.comm import CommConfig, FieldSpec, FieldViews, GluonComm, batch_arrays
from repro.comm.router import Router
from repro.graph import from_edges
from repro.hw import bridges, dgx2
from repro.partition import POLICIES, partition

SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DIST = FieldSpec(name="dist", dtype=np.uint32, reduce_op="min",
                 read_at="src", write_at="dst", identity=2**32 - 1)
ACC = FieldSpec(name="acc", dtype=np.float64, reduce_op="add",
                read_at="none", write_at="dst", identity=0.0,
                reset_after_reduce=True)
RANK = FieldSpec(name="rank", dtype=np.float32, reduce_op="add",
                 read_at="src", write_at="master")
FIELDS = [DIST, ACC, RANK]

CONFIGS = {
    "uo": CommConfig(update_only=True),
    "as": CommConfig(update_only=False),
    "uo-ids": CommConfig(update_only=True, memoize_addresses=False),
    "as-ids": CommConfig(update_only=False, memoize_addresses=False),
    "uo-nofilter": CommConfig(update_only=True, invariant_filtering=False),
}


def labels(pg, spec, rng):
    if np.issubdtype(np.dtype(spec.dtype), np.integer):
        return FieldViews([rng.integers(0, 1000, p.num_local).astype(spec.dtype)
                           for p in pg.parts])
    return FieldViews([rng.random(p.num_local).astype(spec.dtype)
                       for p in pg.parts])


def assert_same_messages(got, want):
    assert len(got) == len(want)
    for m, r in zip(got, want):
        assert m.header == r.header
        assert (m.exchange_len, m.scanned_elements) == (
            r.exchange_len, r.scanned_elements)
        assert m.values.dtype == r.values.dtype
        np.testing.assert_array_equal(m.values, r.values)
        for a, b in ((m.positions, r.positions),
                     (m.explicit_ids, r.explicit_ids)):
            assert (a is None) == (b is None)
            if b is not None:
                np.testing.assert_array_equal(a, b)
        assert m.wire_bytes() == r.wire_bytes()


def every_range(parts: int) -> list[range]:
    """The whole table and every single sender."""
    return [range(parts)] + [range(p, p + 1) for p in range(parts)]


def assert_extraction_matches_oracle(pg, config, pids, rng, clean=()):
    """Mark random writes (sparse to dense) on every sender not in
    ``clean`` in two twin substrates, then extract ``pids`` (a range) of
    every field and phase: one batch from the first, sender by sender from
    the oracle on the second."""
    got_comm = GluonComm(pg, FIELDS, config)
    ref_comm = GluonComm(pg, FIELDS, config)
    for spec in FIELDS:
        lab = labels(pg, spec, rng)
        ref_lab = [a.copy() for a in lab]
        for p, part in enumerate(pg.parts):
            if p in clean or not part.num_local:
                continue  # a sender with zero dirty proxies
            ids = rng.integers(0, part.num_local, rng.integers(1, 30))
            got_comm.mark_updated(spec.name, p, ids)
            ref_comm.mark_updated(spec.name, p, ids)
        for phase in ("reduce", "broadcast"):
            batch = got_comm._extract(spec.name, phase, pids, lab)
            want = [
                m for p in pids
                for m in extract_scalar(ref_comm, spec.name, phase, p, ref_lab)
            ]
            assert_same_messages(got_comm.messages(batch), want)
            # the columns the router prices are the messages' scalars
            cols = batch_arrays(want)
            for name in cols._fields:
                np.testing.assert_array_equal(
                    getattr(batch, name), getattr(cols, name), err_msg=name
                )
            np.testing.assert_array_equal(
                np.diff(batch.offsets), batch.num_elements
            )
            for p in range(pg.num_partitions):
                assert got_comm.updated[spec.name][p] == ref_comm.updated[spec.name][p]
                np.testing.assert_array_equal(lab[p], ref_lab[p])


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
def test_vectorized_matches_scalar(small_graph, policy, config):
    pg = partition(small_graph, policy, 4, cache=False)
    for k, pids in enumerate(every_range(4)):
        assert_extraction_matches_oracle(
            pg, config, pids, np.random.default_rng(k)
        )


@st.composite
def extraction_cases(draw, partition_counts=(1, 2, 3, 4)):
    n = draw(st.integers(6, 60))
    m = draw(st.integers(n, 4 * n))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    parts = draw(st.sampled_from(partition_counts))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    config = CommConfig(
        update_only=draw(st.booleans()),
        memoize_addresses=draw(st.booleans()),
        invariant_filtering=draw(st.booleans()),
    )
    # which run of senders is asked, and which have anything dirty at all
    lo = draw(st.integers(0, parts))
    hi = draw(st.integers(lo, parts))
    clean = draw(st.sets(st.integers(0, parts - 1)))
    seed = draw(st.integers(0, 2**16))
    return src, dst, n, parts, policy, config, range(lo, hi), clean, seed


def assert_case_matches_oracle(case):
    src, dst, n, parts, policy, config, pids, clean, seed = case
    pg = partition(from_edges(src, dst, num_vertices=n), policy, parts,
                   cache=False)
    assert_extraction_matches_oracle(
        pg, config, pids, np.random.default_rng(seed), clean
    )


@given(s=extraction_cases())
@SETTINGS
def test_vectorized_matches_scalar_on_arbitrary_graphs(s):
    assert_case_matches_oracle(s)


@pytest.mark.parametrize("cluster_fn", [bridges, dgx2], ids=["bridges", "dgx2"])
def test_batch_pricing_matches_per_message(small_graph, cluster_fn):
    """Router.price_batch must be bit-exact against the scalar legs."""
    pg = partition(small_graph, "cvc", 4, cache=False)
    comm = GluonComm(pg, FIELDS, CommConfig(update_only=True))
    rng = np.random.default_rng(11)
    lab = labels(pg, DIST, rng)
    for p in range(4):
        comm.mark_updated(
            "dist", p, rng.integers(0, pg.parts[p].num_local, size=40)
        )
    batch = comm.make_reduce_messages("dist", range(4), lab)
    msgs = comm.messages(batch)
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
    config = CommConfig(update_only=True)
    got_comm, ref_comm = GluonComm(pg, FIELDS, config), GluonComm(pg, FIELDS, config)
    # find a (phase, sender) whose table slice serves several partners
    found = None
    for phase in ("reduce", "broadcast"):
        table = got_comm._table("dist", phase)
        for p in range(4):
            if table.sender_seg[p + 1] - table.sender_seg[p] >= 2:
                found = found or (table, phase, p)
    assert found is not None, "no multi-partner sender in this partitioning"
    table, phase, sender = found
    segs = range(table.sender_seg[sender], table.sender_seg[sender + 1])
    # dirty exactly one partner's segment, leaving the others' empty
    lo, hi = table.seg_off[segs[0]], table.seg_off[segs[0] + 1]
    dirty_ids = table.flat_send[lo:hi]
    lab = labels(pg, DIST, np.random.default_rng(3))
    ref_lab = [a.copy() for a in lab]
    got_comm.mark_updated("dist", sender, dirty_ids)
    ref_comm.mark_updated("dist", sender, dirty_ids)
    got = got_comm.messages(
        got_comm._extract("dist", phase, range(sender, sender + 1), lab)
    )
    assert_same_messages(
        got, extract_scalar(ref_comm, "dist", phase, sender, ref_lab)
    )
    receivers = {m.header.dst for m in got}
    # segments overlap (one proxy can serve several partners), so every
    # partner whose segment intersects the dirty set gets a message and
    # no other partner does
    dirty_set = set(int(i) for i in dirty_ids)
    for k in segs:
        seg = table.flat_send[table.seg_off[k]:table.seg_off[k + 1]]
        overlaps = any(int(i) in dirty_set for i in seg)
        assert (int(table.seg_dst[k]) in receivers) == overlaps
    assert got_comm.updated["dist"][sender] == ref_comm.updated["dist"][sender]
    assert not got_comm.updated["dist"][sender].any()


def test_uo_extraction_with_nothing_dirty_is_empty(small_graph):
    pg = partition(small_graph, "iec", 4, cache=False)
    config = CommConfig(update_only=True)
    got_comm, ref_comm = GluonComm(pg, FIELDS, config), GluonComm(pg, FIELDS, config)
    lab = labels(pg, DIST, np.random.default_rng(5))
    for p in range(4):
        batch = got_comm._extract("dist", "reduce", range(p, p + 1), lab)
        assert got_comm.messages(batch) == []
        assert extract_scalar(ref_comm, "dist", "reduce", p, lab) == []
        assert not got_comm.pending_sends("dist", "reduce", p)

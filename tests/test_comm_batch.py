"""The sync batch itself: extraction over any table range, the one apply,
and what a BASP drain may group.

Three contracts, each against a per-message reference:

* a batch extracted over *any* table range (every sender, one sender, none)
  at P in {1, 2, 4, 8}, on a graph and on one with fewer vertices than
  partitions, materialises into exactly the messages the per-element
  oracle extracts sender by sender (the one differential,
  ``tests/test_comm_vectorized_equiv.py``);
* applying a batch in one scatter over the flat field array (``ufunc.at``
  in batch order) leaves bit-identical labels, the same changed set and
  the same dirty bits as applying message by message — with targets
  repeating across senders, for float ``add`` in both widths;
* a drain groups what commutes and nothing else: two overwriting
  broadcasts of one field that arrive inverted are still two applies.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps import get_app
from repro.comm import CommConfig, FieldSpec, FieldViews, GluonComm
from repro.comm.bitset import Bitset
from repro.comm.buffers import SendBatch
from repro.engine import BASPEngine
from repro.engine.core import RoundCore
from repro.errors import CommunicationError
from repro.generators import rmat
from repro.graph import from_edges
from repro.hw import bridges
from repro.partition import partition
from tests.test_comm_vectorized_equiv import (
    DIST, FIELDS, SETTINGS, assert_case_matches_oracle,
    assert_extraction_matches_oracle, every_range, extraction_cases, labels,
)


# --------------------------------------------------------------------- #
# extraction: one batch for any table range == the oracle, sender by sender
# --------------------------------------------------------------------- #
@given(s=extraction_cases(partition_counts=(1, 2, 4, 8)))
@SETTINGS
def test_batch_materialises_to_the_oracles_messages(s):
    assert_case_matches_oracle(s)  # at P = 8, some draws have |V| < P


@pytest.mark.parametrize("update_only", [True, False], ids=["uo", "as"])
@pytest.mark.parametrize("parts", [1, 2, 4, 8])
@pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc"])
def test_every_table_range_matches_the_oracle(policy, parts, update_only):
    """The whole table (a BSP step), every single sender (a BASP local
    round) and an empty range, on a graph and on one with fewer vertices
    than partitions — some partitions then hold no proxy at all."""
    config = CommConfig(update_only=update_only)
    tiny = from_edges([0, 1], [1, 0], num_vertices=2)
    for g in (rmat(6, edge_factor=4, seed=9), tiny):
        pg = partition(g, policy, parts, cache=False)
        if g is tiny and parts > 3:
            assert any(p.num_local == 0 for p in pg.parts)
        ranges = every_range(parts) + [range(0), range(parts, parts)]
        for k, pids in enumerate(ranges):
            assert_extraction_matches_oracle(
                pg, config, pids, np.random.default_rng(k)
            )


def test_single_partition_has_nothing_to_exchange():
    g = from_edges([0, 1, 2], [1, 2, 0], num_vertices=3)
    pg = partition(g, "oec", 1, cache=False)
    for update_only in (True, False):
        comm = GluonComm(pg, FIELDS, CommConfig(update_only=update_only))
        lab = FieldViews([np.zeros(3, dtype=np.uint32)])
        comm.mark_updated("dist", 0, [0, 1, 2])
        batch = comm.make_reduce_messages("dist", range(1), lab)
        assert len(batch) == 0 and comm.messages(batch) == []
        assert comm.records(batch) == []
        assert not comm.pending_sends("dist", "reduce", 0)


def test_packed_nbytes_array_form_matches_scalar():
    n = np.arange(4097)
    got = Bitset.packed_nbytes(n)
    assert got.dtype == np.int64
    assert got.tolist() == [Bitset.packed_nbytes(int(i)) for i in n]
    with pytest.raises(ValueError):
        Bitset.packed_nbytes(np.asarray([3, -1]))


# --------------------------------------------------------------------- #
# delivery: one scatter over the flat array == message by message
# --------------------------------------------------------------------- #
def _apply_per_message(spec, phase, lab, dirty, targets, values):
    """What the per-message engines did with one message (PR 16's
    ``apply_reduce`` / ``apply_broadcast`` bodies)."""
    old = lab[targets]
    ufunc = {"min": np.minimum, "max": np.maximum}.get(spec.reduce_op)
    if phase == "reduce":
        if spec.reduce_op == "add":
            new, changed = old + values, values != 0
        else:
            new = ufunc(old, values)
            changed = new != old
    else:
        new = ufunc(old, values) if ufunc else values
        changed = old != new
    lab[targets] = new
    if phase == "reduce" and changed.any():
        dirty.bits[targets[changed]] = True
    return targets[changed]


@pytest.fixture(scope="module")
def pg():
    rng = np.random.default_rng(5)
    g = from_edges(rng.integers(0, 60, 400), rng.integers(0, 60, 400),
                   num_vertices=60)
    return partition(g, "hvc", 6, cache=False)  # nearly all pairs planned


def _hand_batch(comm, spec, phase, rng, distinct_per_receiver):
    """A batch over a random subset of the planned pairs, messages in
    table (sender) order, with random targets on each receiver: unique
    inside a message, repeating across senders unless the phase forbids."""
    table = comm._table(spec.name, phase)
    S = len(table.seg_src)
    seg = np.flatnonzero(rng.random(S) < 0.7)
    src, dst = table.seg_src[seg], table.seg_dst[seg]
    free = {d: rng.permutation(comm.pg.parts[d].num_local).tolist()
            for d in set(dst.tolist())}
    tgs = []
    for d in dst.tolist():
        n_local = comm.pg.parts[d].num_local
        k = int(rng.integers(1, min(6, n_local) + 1))
        if distinct_per_receiver:
            k = min(k, len(free[d]))
            tgs.append(np.asarray([free[d].pop() for _ in range(k)], dtype=np.int64))
        else:
            # a narrow id range makes cross-sender repeats the norm
            tgs.append(rng.permutation(min(6, n_local))[:k].astype(np.int64))
    keep = [i for i, t in enumerate(tgs) if len(t)]
    seg, src, dst = seg[keep], src[keep], dst[keep]
    tgs = [tgs[i] for i in keep]
    num = np.asarray([len(t) for t in tgs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(num)))
    total = int(offsets[-1])
    if np.issubdtype(np.dtype(spec.dtype), np.integer):
        values = rng.integers(0, 50, total).astype(spec.dtype)
    else:
        # mixed magnitudes and exact zeros: float add order is visible,
        # and ``value != 0`` is exercised
        values = (rng.standard_normal(total) * 10.0 ** rng.integers(-6, 6, total))
        values[rng.random(total) < 0.2] = 0.0
        values = values.astype(spec.dtype)
    return SendBatch(
        spec.name, phase, seg, src, dst, num, np.zeros_like(num),
        np.zeros_like(num), offsets, np.concatenate(tgs), values, None,
    )


CASES = [
    ("add-f32", FieldSpec(name="f", dtype=np.float32, reduce_op="add",
                          read_at="src", write_at="dst"), "reduce"),
    ("add-f64", FieldSpec(name="f", dtype=np.float64, reduce_op="add",
                          read_at="src", write_at="dst"), "reduce"),
    ("min", FieldSpec(name="f", dtype=np.uint32, reduce_op="min",
                      read_at="src", write_at="dst"), "reduce"),
    ("max", FieldSpec(name="f", dtype=np.float64, reduce_op="max",
                      read_at="src", write_at="dst"), "reduce"),
    ("min-broadcast", FieldSpec(name="f", dtype=np.uint32, reduce_op="min",
                                read_at="src", write_at="dst"), "broadcast"),
    ("overwrite-broadcast", FieldSpec(name="f", dtype=np.float32,
                                      reduce_op="add", read_at="src",
                                      write_at="master"), "broadcast"),
]


@pytest.mark.parametrize("name,spec,phase", CASES, ids=[c[0] for c in CASES])
@given(seed=st.integers(0, 2**20))
@SETTINGS
def test_grouped_apply_equals_message_by_message(pg, name, spec, phase, seed):
    rng = np.random.default_rng(seed)
    comm = GluonComm(pg, [spec], CommConfig(invariant_filtering=False))
    overwrite = name == "overwrite-broadcast"
    batch = _hand_batch(comm, spec, phase, rng, distinct_per_receiver=overwrite)
    if not len(batch):
        return
    lab = labels(pg, spec, rng)
    ref_lab = [a.copy() for a in lab]
    ref_dirty = [Bitset(p.num_local) for p in pg.parts]
    ref_changed = [set() for _ in pg.parts]
    offs = batch.offsets.tolist()
    for k, d in enumerate(batch.dst.tolist()):
        ch = _apply_per_message(
            spec, phase, ref_lab[d], ref_dirty[d],
            batch.targets[offs[k]:offs[k + 1]], batch.values[offs[k]:offs[k + 1]],
        )
        ref_changed[d].update(ch.tolist())

    apply = comm.apply_reduce if phase == "reduce" else comm.apply_broadcast
    changed = [set() for _ in pg.parts]
    for d, ch in comm.by_receiver(apply("f", batch, lab)):
        changed[d].update(ch.tolist())
    for p in range(pg.num_partitions):
        # bitwise: the float sums were accumulated in the same order
        assert lab[p].tobytes() == ref_lab[p].tobytes(), name
        assert changed[p] == ref_changed[p]
        assert comm.updated["f"][p] == ref_dirty[p]


def test_hand_batches_repeat_targets_across_senders(pg):
    """The property above is only worth its name if targets collide."""
    spec = CASES[0][1]
    comm = GluonComm(pg, [spec], CommConfig(invariant_filtering=False))
    batch = _hand_batch(comm, spec, "reduce", np.random.default_rng(1), False)
    pairs = list(zip(np.repeat(batch.dst, batch.num_elements).tolist(),
                     batch.targets.tolist()))
    assert len(set(pairs)) < len(pairs)


def test_unplanned_pair_raises_naming_field_and_pair(pg):
    comm = GluonComm(pg, [DIST])
    table = comm._table("dist", "reduce")
    s, d = next(
        (s, d) for s in range(6) for d in range(6) if not table.planned[s, d]
    )
    one = np.asarray([1], dtype=np.int64)
    batch = SendBatch(
        "dist", "reduce", one * 0, one * s, one * d, one, one * 0, one * 0,
        np.asarray([0, 1]), one * 0, np.asarray([7], dtype=np.uint32), None,
    )
    lab = labels(pg, DIST, np.random.default_rng(0))
    for use in (lambda b: comm.apply_reduce("dist", b, lab), comm.records):
        with pytest.raises(CommunicationError, match=f"no reduce plan {s}->{d} for dist"):
            use(batch)


# --------------------------------------------------------------------- #
# the BASP drain: what may be grouped
# --------------------------------------------------------------------- #
def _core(small_graph, ctx, app_name):
    pg = partition(small_graph, "cvc", 4)
    eng = BASPEngine(pg, bridges(4), get_app(app_name), check_memory=False)
    return RoundCore(eng, ctx)


def test_inverted_overwriting_broadcasts_stay_two_deliveries(
    small_graph, ctx, monkeypatch
):
    """pr's ``scaled_rank`` broadcast overwrites.  The master sent A then
    B; B overtook A on the network.  As before PR 17 the mirror ends on
    the stale A (arrival order decides), and the proxy changed twice:
    one apply per record."""
    core = _core(small_graph, ctx, "pr")
    assert core.groupable["contrib", "reduce"]
    assert not core.groupable["scaled_rank", "broadcast"]
    calls = []
    raw = GluonComm.apply_broadcast

    def spy(self, field, batch, labels):
        changed = raw(self, field, batch, labels)
        calls.append(
            (batch.targets.tolist(), (changed - self.base[1]).tolist())
        )
        return changed

    monkeypatch.setattr(GluonComm, "apply_broadcast", spy)
    lab = core.views["scaled_rank"][1]
    tg = np.asarray([0, 2], dtype=np.int64)
    start = lab[tg].copy()
    a = (start + 1).astype(np.float32)
    b = (start + 2).astype(np.float32)
    core.deliver(1, {("scaled_rank", "broadcast"): ([tg, tg], [b, a])},
                 [[] for _ in range(4)])
    np.testing.assert_array_equal(lab[tg], a)
    assert calls == [([0, 2], [0, 2]), ([0, 2], [0, 2])]
    # and A -> A (the same value twice) changes once, then not at all
    calls.clear()
    core.deliver(1, {("scaled_rank", "broadcast"): ([tg, tg], [b, b])},
                 [[] for _ in range(4)])
    assert calls == [([0, 2], [0, 2]), ([0, 2], [])]


def test_inverted_merging_broadcasts_group_into_one_delivery(
    small_graph, ctx, monkeypatch
):
    """bfs's ``dist`` broadcast merges with ``min``: inverted arrivals
    commute, so one drain applies them as one message in one apply, with
    the labels and the candidate *set* two applies would leave."""
    core = _core(small_graph, ctx, "bfs")
    assert core.groupable["dist", "broadcast"]
    receivers = []  # one entry per apply call
    raw = GluonComm.apply_broadcast
    monkeypatch.setattr(
        GluonComm, "apply_broadcast",
        lambda self, field, batch, labels: receivers.append(
            batch.dst) or raw(self, field, batch, labels),
    )
    lab = core.views["dist"][2]
    tg1 = np.asarray([0, 1, 3], dtype=np.int64)
    tg2 = np.asarray([1, 3, 4], dtype=np.int64)
    lab[[0, 1, 3, 4]] = [9, 9, 2, 9]
    later = np.asarray([5, 3, 7], dtype=lab.dtype)   # sent second, arrives first
    stale = np.asarray([6, 8, 9], dtype=lab.dtype)
    candidates = [[] for _ in range(4)]
    core.deliver(2, {("dist", "broadcast"): ([tg1, tg2], [later, stale])},
                 candidates)
    assert receivers == [2]
    assert lab[[0, 1, 3, 4]].tolist() == [5, 3, 2, 9]
    assert set(np.concatenate(candidates[2]).tolist()) == {0, 1}

"""Tests for the Gluon-style synchronization substrate.

These validate semantic correctness (values propagate mirror->master->mirror
with the right reduction), the invariant optimizations (phases eliminated or
partner sets restricted per policy), and UO/AS/memoization wire effects.
"""

import numpy as np
import pytest

from repro.comm import CommConfig, FieldSpec, FieldViews, GluonComm
from repro.constants import INF
from repro.errors import ConfigurationError
from repro.generators import rmat
from repro.partition import cvc, hvc, iec, oec, partition

DIST = FieldSpec(name="dist", dtype=np.uint32, reduce_op="min",
                 read_at="src", write_at="dst", identity=INF)


@pytest.fixture(scope="module")
def g():
    return rmat(8, edge_factor=8, seed=2)


def fresh_labels(pg, value=INF, dtype=np.uint32):
    return FieldViews(
        [np.full(p.num_local, value, dtype=dtype) for p in pg.parts]
    )


class TestFieldSpec:
    def test_bad_reduce_op(self):
        with pytest.raises(ConfigurationError):
            FieldSpec(name="x", dtype=np.uint32, reduce_op="xor")

    def test_bad_locations(self):
        with pytest.raises(ConfigurationError):
            FieldSpec(name="x", dtype=np.uint32, read_at="up")
        with pytest.raises(ConfigurationError):
            FieldSpec(name="x", dtype=np.uint32, write_at="down")

    def test_duplicate_fields_rejected(self, g):
        pg = partition(g, "oec", 2, cache=False)
        with pytest.raises(ConfigurationError):
            GluonComm(pg, [DIST, DIST])


class TestMinReduceRoundTrip:
    @pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
    def test_mirror_write_reaches_all_readers(self, g, policy):
        """Write a low value at one mirror; after sync every proxy that can
        read the field sees the canonical minimum."""
        pg = partition(g, policy, 4, cache=False)
        comm = GluonComm(pg, [DIST])
        labels = fresh_labels(pg)

        # find some mirror with in-edges (a writable proxy)
        target_gid = None
        for p in pg.parts:
            cand = np.flatnonzero(~p.is_master & p.has_in_edges())
            if len(cand):
                l = int(cand[0])
                labels[p.pid][l] = 7
                comm.mark_updated("dist", p.pid, [l])
                target_gid = int(p.local_to_global[l])
                break
        if target_gid is None:
            pytest.skip("policy produced no writable mirrors at this scale")

        comm.bsp_sync("dist", labels)

        owner = int(pg.vertex_owner[target_gid])
        mloc = pg.parts[owner].global_to_local[target_gid]
        assert labels[owner][mloc] == 7  # master reduced the write
        for p in pg.parts:
            l = p.global_to_local[target_gid]
            if l >= 0 and p.has_out_edges()[l]:
                assert labels[p.pid][l] == 7  # reader proxies got broadcast

    def test_min_of_concurrent_writes_wins(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        comm = GluonComm(pg, [DIST])
        labels = fresh_labels(pg)
        # write different values for the same vertex on every partition
        # that holds a writable proxy of it
        gid = None
        for v in range(g.num_vertices):
            holders = [
                p for p in pg.parts
                if p.global_to_local[v] >= 0
                and p.has_in_edges()[p.global_to_local[v]]
            ]
            if len(holders) >= 2:
                gid = v
                break
        assert gid is not None
        for k, p in enumerate(holders):
            l = p.global_to_local[gid]
            labels[p.pid][l] = 100 + k
            comm.mark_updated("dist", p.pid, [l])
        comm.bsp_sync("dist", labels)
        owner = int(pg.vertex_owner[gid])
        assert labels[owner][pg.parts[owner].global_to_local[gid]] == 100

    def test_changed_ids_reported(self, g):
        pg = partition(g, "iec", 2, cache=False)
        comm = GluonComm(pg, [DIST])
        labels = fresh_labels(pg)
        # master-side write then broadcast: receiver must report changes
        p0 = pg.parts[0]
        masters_with_mirrors = [
            idx for q, idx in p0.master_exchange.items() if len(idx)
        ]
        if not masters_with_mirrors:
            pytest.skip("no shared masters")
        l = int(masters_with_mirrors[0][0])
        labels[0][l] = 3
        comm.mark_updated("dist", 0, [l])
        _, changed = comm.bsp_sync("dist", labels)
        total_changed = sum(len(c) for c in changed)
        assert total_changed >= 1


def partners(comm, field: str, phase: str, pid: int) -> list[int]:
    """Partitions ``pid`` sends ``phase`` messages of ``field`` to (a pair
    plan is keyed ``(sender, receiver)``)."""
    return sorted(q for (p, q) in comm._table(field, phase).plans if p == pid)


class TestInvariantElimination:
    def test_oec_eliminates_broadcast(self, g):
        """src-read field under OEC: mirrors have no out-edges, so no
        broadcast plans survive (Section III-D1's worked example)."""
        pg = partition(g, "oec", 4, cache=False)
        comm = GluonComm(pg, [DIST])
        assert all(
            partners(comm, "dist", "broadcast", p) == [] for p in range(4)
        )
        # ... but reduce is still needed
        assert any(partners(comm, "dist", "reduce", p) for p in range(4))

    def test_iec_eliminates_reduce(self, g):
        """dst-write field under IEC: mirrors have no in-edges -> no reduce."""
        pg = partition(g, "iec", 4, cache=False)
        comm = GluonComm(pg, [DIST])
        assert all(partners(comm, "dist", "reduce", p) == [] for p in range(4))
        assert any(partners(comm, "dist", "broadcast", p) for p in range(4))

    def test_cvc_partners_restricted_to_grid(self):
        g = rmat(10, edge_factor=8, seed=4)
        pg = cvc(g, 8)
        pr, pc = pg.grid
        comm = GluonComm(pg, [DIST])
        for p in range(8):
            row, col = divmod(p, pc)
            for q in partners(comm, "dist", "reduce", p):
                assert q % pc == col  # reduce along grid column
            for q in partners(comm, "dist", "broadcast", p):
                assert q // pc == row  # broadcast along grid row

    def test_filtering_off_syncs_everything(self, g):
        pg = partition(g, "oec", 4, cache=False)
        comm = GluonComm(
            pg, [DIST], CommConfig(invariant_filtering=False)
        )
        # without filtering, OEC gets (useless) broadcast plans back
        assert any(partners(comm, "dist", "broadcast", p) for p in range(4))

    def test_master_write_field_has_no_reduce(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        rank = FieldSpec(name="rank", dtype=np.float32, reduce_op="add",
                         read_at="src", write_at="master")
        comm = GluonComm(pg, [rank])
        assert all(partners(comm, "rank", "reduce", p) == [] for p in range(4))

    def test_none_read_field_has_no_broadcast(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        resid = FieldSpec(name="resid", dtype=np.float32, reduce_op="add",
                          read_at="none", write_at="dst",
                          reset_after_reduce=True)
        comm = GluonComm(pg, [resid])
        assert all(partners(comm, "resid", "broadcast", p) == [] for p in range(4))


class TestUpdateTracking:
    def test_uo_sends_nothing_when_clean(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        comm = GluonComm(pg, [DIST], CommConfig(update_only=True))
        labels = fresh_labels(pg)
        msgs, _ = comm.bsp_sync("dist", labels)
        assert msgs == []

    def test_as_sends_every_round(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        comm = GluonComm(pg, [DIST], CommConfig(update_only=False))
        labels = fresh_labels(pg)
        msgs1, _ = comm.bsp_sync("dist", labels)
        msgs2, _ = comm.bsp_sync("dist", labels)
        assert len(msgs1) > 0 and len(msgs1) == len(msgs2)

    def test_uo_volume_less_than_as_for_sparse_updates(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        labels_uo = fresh_labels(pg)
        labels_as = fresh_labels(pg)
        comm_uo = GluonComm(pg, [DIST], CommConfig(update_only=True))
        comm_as = GluonComm(pg, [DIST], CommConfig(update_only=False))
        # one sparse update
        p = pg.parts[0]
        mirrors = np.flatnonzero(~p.is_master)
        if len(mirrors) == 0:
            pytest.skip("no mirrors")
        labels_uo[0][mirrors[0]] = 1
        labels_as[0][mirrors[0]] = 1
        comm_uo.mark_updated("dist", 0, [mirrors[0]])
        m_uo, _ = comm_uo.bsp_sync("dist", labels_uo)
        m_as, _ = comm_as.bsp_sync("dist", labels_as)
        v_uo = sum(m.wire_bytes() for m in m_uo)
        v_as = sum(m.wire_bytes() for m in m_as)
        assert v_uo < v_as

    def test_uo_records_scan_overhead(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        comm = GluonComm(pg, [DIST], CommConfig(update_only=True))
        labels = fresh_labels(pg)
        p = pg.parts[0]
        writable = np.flatnonzero(~p.is_master & p.has_in_edges())
        if len(writable) == 0:
            pytest.skip("no writable mirrors")
        labels[0][writable[0]] = 1
        comm.mark_updated("dist", 0, [writable[0]])
        batch = comm.make_reduce_messages("dist", range(1), labels)
        assert len(batch) and (batch.scanned_elements > 0).all()
        assert all(m.scanned_elements > 0 for m in comm.messages(batch))

    def test_dirty_bits_cleared_after_send(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        comm = GluonComm(pg, [DIST], CommConfig(update_only=True))
        labels = fresh_labels(pg)
        p = pg.parts[0]
        writable = np.flatnonzero(~p.is_master & p.has_in_edges())
        if len(writable) == 0:
            pytest.skip("no writable mirrors")
        labels[0][writable[0]] = 1
        comm.mark_updated("dist", 0, [writable[0]])
        assert len(comm.make_reduce_messages("dist", range(1), labels))
        assert not len(comm.make_reduce_messages("dist", range(1), labels))


class TestAccumulators:
    def test_add_reduce_sums_contributions(self):
        g = rmat(10, edge_factor=8, seed=4)
        pg = partition(g, "cvc", 8, cache=False)
        resid = FieldSpec(name="r", dtype=np.float32, reduce_op="add",
                          read_at="none", write_at="dst", identity=0.0,
                          reset_after_reduce=True)
        comm = GluonComm(pg, [resid])
        labels = fresh_labels(pg, value=0.0, dtype=np.float32)
        # every writable proxy of some vertex adds 1
        gid = None
        for v in range(g.num_vertices):
            holders = [
                p for p in pg.parts
                if p.global_to_local[v] >= 0
                and not p.is_master[p.global_to_local[v]]
                and p.has_in_edges()[p.global_to_local[v]]
            ]
            if len(holders) >= 2:
                gid = v
                break
        if gid is None:
            pytest.skip("no multiply-mirrored writable vertex")
        for p in holders:
            l = p.global_to_local[gid]
            labels[p.pid][l] += 1.0
            comm.mark_updated("r", p.pid, [l])
        owner = int(pg.vertex_owner[gid])
        before = labels[owner][pg.parts[owner].global_to_local[gid]]
        comm.bsp_sync("r", labels)
        after = labels[owner][pg.parts[owner].global_to_local[gid]]
        assert after - before == pytest.approx(len(holders))

    def test_accumulator_reset_after_send(self, g):
        pg = partition(g, "cvc", 4, cache=False)
        resid = FieldSpec(name="r", dtype=np.float32, reduce_op="add",
                          read_at="none", write_at="dst", identity=0.0,
                          reset_after_reduce=True)
        comm = GluonComm(pg, [resid])
        labels = fresh_labels(pg, value=0.0, dtype=np.float32)
        p = pg.parts[0]
        writable = np.flatnonzero(~p.is_master & p.has_in_edges())
        if len(writable) == 0:
            pytest.skip("no writable mirrors")
        l = int(writable[0])
        labels[0][l] = 5.0
        comm.mark_updated("r", 0, [l])
        comm.make_reduce_messages("r", range(1), labels)
        assert labels[0][l] == 0.0  # reset to identity, not re-sent


class TestMemoization:
    def test_explicit_ids_present_when_not_memoized(self, g):
        pg = partition(g, "iec", 4, cache=False)
        comm = GluonComm(
            pg, [DIST],
            CommConfig(update_only=False, memoize_addresses=False),
        )
        labels = fresh_labels(pg)
        msgs, _ = comm.bsp_sync("dist", labels)
        assert msgs and all(m.explicit_ids is not None for m in msgs)

    def test_memoized_messages_have_no_ids(self, g):
        pg = partition(g, "iec", 4, cache=False)
        comm = GluonComm(pg, [DIST], CommConfig(update_only=False))
        labels = fresh_labels(pg)
        msgs, _ = comm.bsp_sync("dist", labels)
        assert msgs and all(m.explicit_ids is None for m in msgs)

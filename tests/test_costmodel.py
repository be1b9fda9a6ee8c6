"""Tests for the cost model and message router pricing."""

import numpy as np
import pytest

from repro.comm import Message, MessageHeader
from repro.comm.router import Router
from repro.engine.costmodel import CostModel
from repro.hw import bridges, tuxedo
from repro.loadbalance import ALB, TWC


def msg(src=0, dst=2, n=1000, scanned=0):
    return Message(
        header=MessageHeader(src, dst, "reduce", "dist"),
        values=np.zeros(n, dtype=np.uint32),
        scanned_elements=scanned,
    )


class TestCostModel:
    def test_empty_round_free(self):
        cm = CostModel(bridges(4), ALB)
        assert cm.compute_time(0, np.empty(0)) == 0.0

    def test_compute_scales_with_work(self):
        cm = CostModel(bridges(4), ALB)
        small = cm.compute_time(0, np.full(100, 10.0))
        big = cm.compute_time(0, np.full(10000, 10.0))
        assert big > 3 * small

    def test_scale_factor_inflates(self):
        c1 = CostModel(bridges(4), ALB, scale_factor=1.0)
        c2 = CostModel(bridges(4), ALB, scale_factor=100.0)
        deg = np.full(1000, 20.0)
        assert c2.compute_time(0, deg) > 20 * c1.compute_time(0, deg)

    def test_twc_pays_for_giant_vertex(self):
        deg = np.full(1000, 10.0)
        deg[0] = 1e6
        twc = CostModel(bridges(4), TWC).compute_time(0, deg)
        alb = CostModel(bridges(4), ALB).compute_time(0, deg)
        assert twc > 3 * alb

    def test_heterogeneous_devices_differ(self):
        cm = CostModel(tuxedo(6), ALB)
        deg = np.full(5000, 20.0)
        k80 = cm.compute_time(0, deg)  # K80
        gtx = cm.compute_time(5, deg)  # GTX1080
        assert k80 != gtx

    def test_master_time_zero_when_untouched(self):
        cm = CostModel(bridges(4), ALB)
        assert cm.master_time(0, 0) == 0.0
        assert cm.master_time(0, 1000) > 0.0

    def test_allreduce_grows_with_hosts(self):
        small = CostModel(bridges(2), ALB).allreduce_time()
        big = CostModel(bridges(64), ALB).allreduce_time()
        assert big > small

    def test_single_host_allreduce_cheap(self):
        assert CostModel(tuxedo(4), ALB).allreduce_time() < 1e-5


class TestRouter:
    def test_same_host_skips_network(self):
        r = Router(bridges(4))
        same = r.legs(msg(src=0, dst=1))  # GPUs 0,1 share host 0
        cross = r.legs(msg(src=0, dst=2))
        assert same.total < cross.total

    def test_loopback_free(self):
        r = Router(bridges(4))
        legs = r.legs(msg(src=1, dst=1))
        assert legs.total == 0.0

    def test_volume_scale_inflates(self):
        r1 = Router(bridges(4), volume_scale=1.0)
        r2 = Router(bridges(4), volume_scale=1000.0)
        assert r2.legs(msg()).total > 10 * r1.legs(msg()).total
        assert r2.scaled_bytes(msg()) == 1000.0 * r1.scaled_bytes(msg())

    def test_extraction_time_from_scan(self):
        r = Router(bridges(4))
        assert r.extraction_time(msg(scanned=0)) == 0.0
        assert r.extraction_time(msg(scanned=100000)) > 0.0

    def test_serialization_dominates_large_messages(self):
        """The per-element host cost is the device-comm bottleneck — the
        model behind the paper's GPUDirect recommendation."""
        r = Router(bridges(4), volume_scale=1000.0)
        legs = r.legs(msg(n=100_000))
        nbytes = r.scaled_bytes(msg(n=100_000))
        pure_pcie = r.cluster.pcie.time(nbytes)
        assert legs.d2h > 2 * pure_pcie


class TestCostBreakdown:
    """The stable schema shared with partition stats and repro.tune."""

    def test_roundtrip(self):
        from repro.engine.costmodel import CostBreakdown

        b = CostBreakdown(compute=1.5, sync=0.25, serialize=0.125, overhead=1e-6)
        assert CostBreakdown.from_dict(b.to_dict()) == b
        assert b.total == pytest.approx(1.5 + 0.25 + 0.125 + 1e-6)

    def test_from_dict_rejects_unknown_keys(self):
        from repro.engine.costmodel import CostBreakdown
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown CostBreakdown"):
            CostBreakdown.from_dict({"compute": 1.0, "network": 2.0})

    def test_add_and_scale(self):
        from repro.engine.costmodel import CostBreakdown

        a = CostBreakdown(compute=1.0, sync=2.0)
        b = CostBreakdown(serialize=3.0, overhead=4.0)
        assert a + b == CostBreakdown(
            compute=1.0, sync=2.0, serialize=3.0, overhead=4.0
        )
        assert a.scaled(2.0) == CostBreakdown(compute=2.0, sync=4.0)

    def test_price_round_composes_primitives(self):
        cm = CostModel(bridges(4), ALB, scale_factor=2.0)
        deg = np.full(200, 8.0)
        msgs = [msg(src=0, dst=2, n=500, scanned=500),
                msg(src=1, dst=3, n=300)]
        b = cm.price_round(deg, msgs)
        assert b.compute == cm.compute_time(0, deg)
        priced = cm.price_batch(msgs)
        assert b.sync == pytest.approx(float(np.max(cm.route_step(priced).eff_inter)))
        from repro.engine.costmodel import serialize_seconds_by_device

        per_dev = serialize_seconds_by_device(priced, 4)
        assert b.serialize == pytest.approx(float(per_dev.max()))
        assert b.overhead == cm.allreduce_time()
        # no messages -> zero comm legs, compute and overhead unchanged
        empty = cm.price_round(deg, [])
        assert empty.sync == 0.0 and empty.serialize == 0.0
        assert empty.compute == b.compute

    def test_serialize_by_device_charges_ends(self):
        from repro.engine.costmodel import serialize_seconds_by_device

        cm = CostModel(bridges(4), ALB)
        priced = cm.price_batch([msg(src=0, dst=2, n=1000, scanned=1000)])
        per_dev = serialize_seconds_by_device(priced, 4)
        # sender pays extraction + d2h, receiver pays h2d, others nothing
        assert per_dev[0] == pytest.approx(float(priced.extraction[0] + priced.d2h[0]))
        assert per_dev[2] == pytest.approx(float(priced.h2d[0]))
        assert per_dev[1] == 0.0 and per_dev[3] == 0.0


class TestPartitionStatsSchema:
    """PartitionStats <-> dict round trip + the cost-model bridge."""

    def _stats(self):
        from repro.generators import rmat
        from repro.partition import partition
        from repro.partition.stats import partition_stats

        g = rmat(8, edge_factor=6, seed=2)
        return partition_stats(partition(g, "cvc", 4, cache=False))

    def test_roundtrip(self):
        from repro.partition.stats import PartitionStats

        s = self._stats()
        assert PartitionStats.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_and_missing(self):
        from repro.errors import ConfigurationError
        from repro.partition.stats import PartitionStats

        d = self._stats().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown PartitionStats"):
            PartitionStats.from_dict(d)
        del d["bogus"], d["policy"]
        with pytest.raises(ConfigurationError, match="missing PartitionStats"):
            PartitionStats.from_dict(d)

    def test_comm_breakdown_prices_through_cost_model(self):
        """The synthetic sync batch of a partitioning prices through the
        real cost model (what the advisor's predictor does)."""
        from repro.partition.stats import sync_messages_for_stats

        s = self._stats()
        cm = CostModel(bridges(4), ALB, scale_factor=10.0)
        b = cm.price_round(
            np.empty(0),
            sync_messages_for_stats(s, update_only=True, updated_fraction=0.5),
        )
        assert b.compute == 0.0  # stats cannot know the app's frontier
        assert b.sync > 0.0 and b.serialize > 0.0

"""Shared-resource contention and host-aware serialization pricing.

Three concerns, matching the ISSUE acceptance criteria:

* the **ser-rate regression**: each endpoint's host charges its *own*
  serialization rate (sender packs, receiver unpacks) — scalar and batch
  pricing must agree bitwise, including on heterogeneous-host clusters;
* **empty batches** return explicitly empty results;
* the **contended mode**: opt-in FIFO queueing on shared NICs / staging
  paths / PCIe lanes / host cores.  With the config absent or disabled,
  everything must stay bit-identical to the flat model; with it enabled,
  labels never change and runs only get slower.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_app
from repro.check.oracle import price_batch_scalar
from repro.comm import CommConfig, Message, MessageHeader, Router, batch_arrays
from repro.engine import BASPEngine, BSPEngine
from repro.errors import ConfigurationError
from repro.hw import ContentionConfig, ContentionModel, bridges, tuxedo
from repro.hw.cluster import Cluster
from repro.hw.gpu import P100
from repro.hw.host import BRIDGES_HOST, HostSpec
from repro.partition import partition

SETTINGS = settings(max_examples=60, deadline=None)


def msg(src, dst, n=64, scanned=0):
    return Message(
        header=MessageHeader(src=src, dst=dst, phase="reduce", field="x"),
        values=np.arange(n, dtype=np.float64),
        scanned_elements=scanned,
    )


def hetero_cluster():
    """Two hosts with *different* serialization rates, two GPUs each."""
    fast = HostSpec(name="fast", num_cores=32, dram_bytes=2**34,
                    serialization_rate=50e6)
    slow = HostSpec(name="slow", num_cores=32, dram_bytes=2**34,
                    serialization_rate=10e6)
    return Cluster(
        name="hetero",
        gpus=(P100,) * 4,
        host_of=(0, 0, 1, 1),
        hosts=(fast, slow),
    )


# --------------------------------------------------------------------------- #
# empty batches
# --------------------------------------------------------------------------- #
class TestEmptyBatches:
    def test_batch_arrays_empty(self):
        batch = batch_arrays([])
        assert len(batch.src) == 0
        assert batch.src.dtype == np.int64
        assert len(batch.wire_bytes) == 0

    def test_price_batch_empty(self):
        pr = Router(bridges(4)).price_batch([])
        for arr in pr:
            assert len(arr) == 0

    def test_route_step_empty(self):
        router = Router(bridges(4))
        net = router.route_step(router.price_batch([]))
        assert len(net.eff_inter) == 0
        assert net.inter_host_messages == 0
        assert net.aggregates == 0


# --------------------------------------------------------------------------- #
# the ser-rate bugfix: sender packs at its rate, receiver unpacks at its own
# --------------------------------------------------------------------------- #
class TestHostAwareSerialization:
    def test_legs_use_endpoint_host_rates(self):
        c = hetero_cluster()
        router = Router(c)
        m = msg(0, 2)  # fast host -> slow host
        legs = router.legs(m)
        nbytes = m.wire_bytes()
        elements = m.num_elements
        assert legs.d2h == c.pcie.time(nbytes) + elements / 50e6
        assert legs.h2d == c.pcie.time(nbytes) + elements / 10e6
        # and the reverse direction swaps the rates
        back = router.legs(msg(2, 0))
        assert back.d2h == legs.h2d
        assert back.h2d == legs.d2h

    def test_batch_matches_scalar_bitwise_heterogeneous(self):
        router = Router(hetero_cluster(), volume_scale=3.0)
        messages = [
            msg(s, d, n=n, scanned=n * 2)
            for s, d, n in [(0, 1, 8), (0, 2, 64), (2, 0, 640),
                            (3, 1, 1), (1, 1, 16), (2, 3, 32)]
        ]
        vec = router.price_batch(messages)
        ref = price_batch_scalar(router, messages)
        for a, b in zip(vec, ref):
            assert np.array_equal(a, b)

    def test_batch_matches_scalar_bitwise_homogeneous(self):
        # on same-rate hosts the per-endpoint indexing must collapse to
        # the old shared-constant pricing exactly (same float divisions)
        router = Router(bridges(8), volume_scale=1.0)
        messages = [msg(s, d, n=16 + s) for s in range(8) for d in range(8)]
        vec = router.price_batch(messages)
        ref = price_batch_scalar(router, messages)
        for a, b in zip(vec, ref):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# flat equivalence: contention/hier off reproduce the flat model bitwise
# --------------------------------------------------------------------------- #
class TestFlatEquivalence:
    @staticmethod
    def assert_same_legs(flat, general):
        assert flat.aggregates == 0 and flat.messages_saved == 0
        assert np.array_equal(flat.eff_inter, general.eff_inter)
        assert flat[2:] == general[2:]  # every count

    def test_route_step_reproduces_flat_inter(self):
        # the flat return against the general scheduler where the two
        # must agree: two-level sync on one host has no cross-host
        # message to fold
        messages = [msg(0, 1), msg(0, 2, n=640), msg(2, 3), msg(3, 0, n=8),
                    msg(1, 1), msg(2, 1, scanned=64), msg(0, 3)]
        ready = np.cumsum(np.linspace(1e-6, 4e-6, len(messages)))
        for gpudirect in (False, True):
            router = Router(
                replace(tuxedo(4), gpudirect=gpudirect), volume_scale=3.0
            )
            pr = router.price_batch(messages)
            # route_step's flat return times no up leg, so only its legs
            # and counts share the general schedule's step timeline
            self.assert_same_legs(
                router.route_step(pr), router.route_step(pr, hierarchical=True)
            )
            flat = router.schedule_network(pr, ready)
            general = router.schedule_network(pr, ready, hierarchical=True)
            self.assert_same_legs(flat, general)
            assert np.array_equal(flat.done, general.done)

    def test_disabled_config_normalizes_to_none(self):
        cluster = bridges(4, contention=ContentionConfig(enabled=False))
        assert Router(cluster).contention is None

    def test_enabled_config_builds_model(self):
        cluster = bridges(4, contention=ContentionConfig())
        assert Router(cluster).contention is not None


# --------------------------------------------------------------------------- #
# ContentionModel properties
# --------------------------------------------------------------------------- #
requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1, max_size=30,
)


class TestContentionModelProperties:
    @given(reqs=requests, cap=st.integers(1, 4))
    @SETTINGS
    def test_conservation_and_bounds(self, reqs, cap):
        model = ContentionModel(bridges(2), ContentionConfig(nic_servers=cap))
        key = ("nic", 0)
        for ready, service in reqs:
            start = model.acquire(key, ready, service)
            # never starts early, never finishes before the flat time
            assert start >= ready
            assert start + service >= ready + service
        stats = model.stats[key]
        assert stats.messages == len(reqs)
        assert stats.busy_s == pytest.approx(sum(s for _, s in reqs))
        assert stats.queue_s >= 0.0

    @given(reqs=requests)
    @SETTINGS
    def test_fifo_on_sorted_ready(self, reqs):
        model = ContentionModel(bridges(2), ContentionConfig())
        starts = [
            model.acquire(("nic", 0), ready, service)
            for ready, service in sorted(reqs)
        ]
        assert all(a <= b for a, b in zip(starts, starts[1:]))

    @given(reqs=requests)
    @SETTINGS
    def test_ample_capacity_never_queues(self, reqs):
        model = ContentionModel(
            bridges(2), ContentionConfig(nic_servers=len(reqs))
        )
        for ready, service in reqs:
            assert model.acquire(("nic", 0), ready, service) == ready
        assert model.stats[("nic", 0)].queue_s == 0.0

    @given(reqs=requests)
    @SETTINGS
    def test_joint_acquire_holds_both_resources(self, reqs):
        model = ContentionModel(bridges(2), ContentionConfig())
        keys = [("pcie_up", 0), ("cores", 0)]
        prev_end = 0.0
        for ready, service in sorted(reqs):
            start = model.acquire_joint(keys, ready, service)
            assert start >= ready
            # capacity-1 lane: the joint grant serializes on it
            assert start >= prev_end
            prev_end = start + service
        lane, cores = model.stats[keys[0]], model.stats[keys[1]]
        total = pytest.approx(sum(s for _, s in reqs))
        assert lane.busy_s == total
        assert cores.busy_s == total

    def test_reset_clocks_keeps_stats(self):
        model = ContentionModel(bridges(2), ContentionConfig())
        model.acquire(("nic", 0), 0.0, 1.0)
        model.acquire(("nic", 0), 0.0, 1.0)
        model.reset_clocks()
        assert model.acquire(("nic", 0), 0.0, 1.0) == 0.0  # clock forgot
        assert model.stats[("nic", 0)].messages == 3  # stats did not

    def test_invalid_capacities_raise(self):
        with pytest.raises(ConfigurationError):
            ContentionConfig(nic_servers=0)
        with pytest.raises(ConfigurationError):
            ContentionConfig(staging_servers=-1)
        with pytest.raises(ConfigurationError):
            ContentionConfig(serialization_cores=0)


# --------------------------------------------------------------------------- #
# engine-level: contended-off bit identity, contended-on sanity
# --------------------------------------------------------------------------- #
def run_engine(engine_cls, graph, ctx, cluster, **kw):
    pg = partition(graph, "cvc", cluster.num_gpus, cache=False)
    eng = engine_cls(pg, cluster, get_app("bfs"), check_memory=False, **kw)
    return eng, eng.run(ctx)


@pytest.mark.parametrize("engine_cls", [BSPEngine, BASPEngine])
class TestContendedEngines:
    def test_disabled_config_bit_identical(self, small_graph, ctx, engine_cls):
        _, flat = run_engine(engine_cls, small_graph, ctx, bridges(8))
        _, off = run_engine(
            engine_cls, small_graph, ctx,
            bridges(8, contention=ContentionConfig(enabled=False)),
        )
        assert np.array_equal(flat.labels, off.labels)
        assert flat.stats.execution_time == off.stats.execution_time
        assert flat.stats.comm_volume_bytes == off.stats.comm_volume_bytes
        assert flat.stats.num_messages == off.stats.num_messages
        assert flat.stats.min_wait == off.stats.min_wait

    def test_contended_same_labels_slower_or_equal(
        self, small_graph, ctx, engine_cls
    ):
        _, flat = run_engine(engine_cls, small_graph, ctx, bridges(8))
        eng, cont = run_engine(
            engine_cls, small_graph, ctx,
            bridges(8, contention=ContentionConfig()),
        )
        assert np.array_equal(flat.labels, cont.labels)
        if engine_cls is BSPEngine:
            # BSP's round structure is timing-independent; queueing can
            # only add waiting.  (BASP is asynchronous: later arrivals
            # legitimately reshuffle the local-round interleaving.)
            assert cont.stats.rounds == flat.stats.rounds
            assert cont.stats.execution_time >= flat.stats.execution_time
        # shared NICs saw traffic and recorded it
        stats = eng.cost.router.contention.stats
        assert any(k[0] == "nic" for k in stats)
        assert sum(s.busy_s for s in stats.values()) > 0.0

    def test_tuxedo_staging_queue(self, small_graph, ctx, engine_cls):
        _, flat = run_engine(engine_cls, small_graph, ctx, tuxedo(6))
        eng, cont = run_engine(
            engine_cls, small_graph, ctx,
            tuxedo(6, contention=ContentionConfig()),
        )
        assert np.array_equal(flat.labels, cont.labels)
        assert cont.stats.execution_time >= flat.stats.execution_time
        stats = eng.cost.router.contention.stats
        # single host: all network-stage traffic is pinned staging
        assert any(k[0] == "staging" for k in stats)
        assert not any(k[0] == "nic" for k in stats)

    def test_gpudirect_skips_host_resources(self, small_graph, ctx, engine_cls):
        eng, cont = run_engine(
            engine_cls, small_graph, ctx,
            bridges(8, gpudirect=True, contention=ContentionConfig()),
        )
        _, flat = run_engine(
            engine_cls, small_graph, ctx, bridges(8, gpudirect=True)
        )
        assert np.array_equal(flat.labels, cont.labels)
        stats = eng.cost.router.contention.stats
        # device-direct: no host staging, no host serialization cores
        assert not any(k[0] == "staging" for k in stats)
        assert not any(k[0] == "cores" for k in stats)


class TestContendedBatchPricing:
    def test_price_batch_contended_queues_shared_nic(self):
        cluster = bridges(4, contention=ContentionConfig())
        router = Router(cluster)
        flat = Router(bridges(4))
        # both GPUs of host 0 fire cross-host messages at once: the
        # shared port must serialize them
        messages = [msg(0, 2, n=4096), msg(1, 3, n=4096)]
        net = router.route_step(router.price_batch(messages))
        ref = flat.price_batch(messages)
        assert net.eff_inter.sum() > ref.inter.sum()
        assert net.eff_inter.min() >= ref.inter.min()

    def test_price_batch_contended_requires_opt_in(self):
        # price_batch is flat on a contended cluster too: the queueing is
        # route_step's, which takes these legs as service times
        cluster = bridges(4, contention=ContentionConfig())
        pr = Router(cluster).price_batch([msg(0, 2), msg(1, 3)])
        ref = Router(bridges(4)).price_batch([msg(0, 2), msg(1, 3)])
        for a, b in zip(pr, ref):
            assert np.array_equal(a, b)


class TestContendedRequiresModel:
    def test_contended_with_model_still_works(self):
        router = Router(bridges(4, contention=ContentionConfig()))
        net = router.route_step(router.price_batch([msg(0, 2), msg(1, 3)]))
        assert len(net.eff_inter) == 2 and np.all(np.isfinite(net.eff_inter))


# --------------------------------------------------------------------------- #
# framework plumbing
# --------------------------------------------------------------------------- #
class TestPlatformSuffix:
    def test_contended_suffix_attaches_config(self):
        from repro.frameworks.dirgl import DIrGL

        cluster = DIrGL().make_cluster(8, "bridges:contended")
        assert cluster.contention == ContentionConfig()
        assert DIrGL().make_cluster(8, "bridges").contention is None

    def test_unknown_flag_rejected(self):
        from repro.errors import UnsupportedFeatureError
        from repro.frameworks.dirgl import DIrGL

        with pytest.raises(UnsupportedFeatureError):
            DIrGL().make_cluster(8, "bridges:turbo")

    def test_dgx2_platform(self):
        from repro.frameworks.dirgl import DIrGL

        cluster = DIrGL().make_cluster(16, "dgx2")
        assert cluster.num_hosts == 1
        assert cluster.gpudirect

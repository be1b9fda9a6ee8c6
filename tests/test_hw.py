"""Tests for the hardware model: GPUs, clusters, interconnects, memory."""

import numpy as np
import pytest

from repro.constants import GIB
from repro.errors import ConfigurationError, SimulatedOOMError
from repro.hw import (
    Cluster,
    GTX1080,
    K80,
    OMNIPATH,
    P100,
    PCIE3_X16,
    MemoryModel,
    bridges,
    tuxedo,
    uniform_cluster,
)
from repro.hw.interconnect import transfer_time
from repro.hw.memory import (
    DIRGL_PROFILE,
    GROUTE_PROFILE,
    GUNROCK_PROFILE,
    LUX_PROFILE,
)


class TestGPUSpecs:
    def test_p100_capacity(self):
        assert P100.mem_capacity_bytes == 16 * GIB

    def test_effective_bandwidth_below_peak(self):
        for gpu in (P100, K80, GTX1080):
            assert gpu.effective_bandwidth < gpu.mem_bandwidth_bytes

    def test_seconds_for_bytes_monotone(self):
        assert P100.seconds_for_bytes(2e9) > P100.seconds_for_bytes(1e9)

    def test_p100_faster_than_k80(self):
        assert P100.seconds_for_bytes(1e9) < K80.seconds_for_bytes(1e9)

    def test_concurrent_blocks(self):
        assert P100.concurrent_blocks == 56 * P100.blocks_per_sm


class TestClusters:
    def test_bridges_two_gpus_per_host(self):
        c = bridges(8)
        assert c.num_gpus == 8
        assert c.num_hosts == 4
        assert c.same_host(0, 1)
        assert not c.same_host(1, 2)

    def test_bridges_odd_gpu_count(self):
        c = bridges(3)
        assert c.num_hosts == 2

    def test_bridges_limits(self):
        with pytest.raises(ConfigurationError):
            bridges(65)
        with pytest.raises(ConfigurationError):
            bridges(0)

    def test_tuxedo_heterogeneous(self):
        c = tuxedo(6)
        assert [g.name for g in c.gpus] == ["K80"] * 4 + ["GTX1080"] * 2
        assert c.num_hosts == 1
        assert all(c.same_host(0, i) for i in range(6))

    def test_tuxedo_scaling_order(self):
        assert [g.name for g in tuxedo(2).gpus] == ["K80", "K80"]

    def test_tuxedo_limit(self):
        with pytest.raises(ConfigurationError):
            tuxedo(7)

    def test_uniform_cluster(self):
        c = uniform_cluster(16, gpus_per_host=4)
        assert c.num_hosts == 4
        assert c.host_of[:5] == (0, 0, 0, 0, 1)

    def test_min_gpu_memory(self):
        smallest = min(g.mem_capacity_bytes for g in tuxedo(6).gpus)
        assert smallest == GTX1080.mem_capacity_bytes

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster("bad", (P100,), (0, 1), (tuxedo(1).hosts[0],))


class TestInterconnect:
    def test_latency_floor(self):
        assert OMNIPATH.time(0) == OMNIPATH.latency_s

    def test_bandwidth_dominates_large(self):
        t = OMNIPATH.time(1e9)
        assert t == pytest.approx(1e9 / OMNIPATH.bandwidth_bytes, rel=0.01)

    def test_per_message_latency(self):
        one = transfer_time(OMNIPATH, 1e6, num_messages=1)
        many = transfer_time(OMNIPATH, 1e6, num_messages=100)
        assert many - one == pytest.approx(99 * OMNIPATH.latency_s)

    def test_zero_messages_free(self):
        assert transfer_time(PCIE3_X16, 0, num_messages=0) == 0.0


class TestMemoryModel:
    def test_scale_factor_scales(self):
        m1 = MemoryModel(DIRGL_PROFILE, scale_factor=1.0)
        m2 = MemoryModel(DIRGL_PROFILE, scale_factor=10.0)
        b1 = m1.partition_bytes(100_000, 10_000_000)
        b2 = m2.partition_bytes(100_000, 10_000_000)
        assert b2 > 5 * b1

    def test_oom_raised(self):
        c = bridges(2)
        m = MemoryModel(DIRGL_PROFILE, scale_factor=1e6)
        with pytest.raises(SimulatedOOMError) as ei:
            m.usage(c, [1000, 1000], [100000, 100000])
        assert ei.value.gpu_index in (0, 1)
        assert ei.value.required_bytes > ei.value.capacity_bytes

    def test_no_check_returns_usage(self):
        c = bridges(2)
        m = MemoryModel(DIRGL_PROFILE, scale_factor=1e6)
        u = m.usage(c, [1000, 1000], [100000, 100000], check=False)
        assert u.max_bytes / 2**30 > 16

    def test_lux_static_allocation_floor(self):
        m = MemoryModel(LUX_PROFILE, scale_factor=1.0)
        tiny = m.partition_bytes(10, 100)
        assert tiny == pytest.approx(5.85 * GIB)

    def test_lux_oom_when_exceeding_static_pool(self):
        c = bridges(2)
        m = MemoryModel(LUX_PROFILE, scale_factor=5e4)
        with pytest.raises(SimulatedOOMError):
            m.usage(c, [10000, 10000], [500000, 500000])

    def test_dirgl_smallest_footprint(self):
        """Table III ordering: D-IrGL < Groute < Gunrock, Lux static."""
        args = (50_000, 2_000_000)
        d = MemoryModel(DIRGL_PROFILE).partition_bytes(*args)
        g = MemoryModel(GROUTE_PROFILE).partition_bytes(*args)
        k = MemoryModel(GUNROCK_PROFILE).partition_bytes(*args)
        assert d < g < k

    def test_balance_ratio(self):
        c = bridges(2)
        m = MemoryModel(DIRGL_PROFILE)
        u = m.usage(c, [1000, 1000], [10000, 30000])
        assert u.max_bytes / u.mean_bytes > 1.0

    def test_wrong_partition_count(self):
        with pytest.raises(ValueError):
            MemoryModel(DIRGL_PROFILE).usage(bridges(4), [1, 2], [3, 4])

"""The GNN feature-gather workload: pricing, placement, determinism.

The differential suite pins ISSUE 10's acceptance criterion: gather
results (label CRCs) and feature-traffic counters are bit-identical
across engine executors (serial vs. threads) and sweep fan-out
(in-process vs. ``--jobs 2``) for every fuzz suite shape x partition
policy.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.comm.router import Router
from repro.engine.operator import RoundOutput
from repro.errors import ConfigurationError
from repro.gnnflow import (
    GNN_POLICIES,
    GNN_SHAPES,
    GNNFlowConfig,
    evaluate_gnn,
    feature_value,
    gnn_study,
)
from repro.gnnflow.study import base_config, gnn_dataset
from repro.hw.cluster import ContentionConfig, bridges
from repro.obs import Tracer, use_tracer
from repro.runtime.cells import CellSpec, SystemSpec, run_task
from repro.runtime.sweep import SweepExecutor


def _spec(shape="powerlaw", policy="iec", cfg=None, **kwargs) -> CellSpec:
    cfg = cfg if cfg is not None else base_config()
    return CellSpec(
        key=(shape, policy),
        system=SystemSpec.dirgl(policy=policy, execution="sync"),
        benchmark="gnnflow",
        dataset=gnn_dataset(shape),
        num_gpus=4,
        platform="bridges:contended",
        check_memory=False,
        ctx_overrides=(("payload", cfg),),
        **kwargs,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"feature_dim": 0},
            {"fanout": ()},
            {"fanout": (2, 0)},
            {"minibatch": 0},
            {"num_rounds": 0},
            {"cache_fraction": -0.1},
            {"cache_fraction": 1.5},
            {"bytes_per_feature": 0},
        ],
    )
    def test_bad_knobs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            GNNFlowConfig(**bad)

    def test_config_is_hashable_for_ctx_overrides(self):
        cfg = GNNFlowConfig(cache_fraction=0.5)
        assert hash((("payload", cfg),))  # CellSpec is a frozen dataclass

    def test_miss_cost(self):
        assert GNNFlowConfig(feature_dim=8, bytes_per_feature=4).feature_nbytes == 32

    def test_feature_values_deterministic_unit_interval(self):
        v = feature_value(np.arange(1000))
        assert ((0.0 <= v) & (v < 1.0)).all()
        assert np.array_equal(v, feature_value(np.arange(1000)))


class TestRoundOutputDefaults:
    def test_label_only_programs_report_zero_feature_traffic(self):
        out = RoundOutput(
            updated={},
            activated=np.empty(0, dtype=np.int64),
            edges_processed=0,
            frontier_degrees=np.empty(0),
        )
        assert out.feature_bytes == 0.0
        assert out.feature_cache_hits == 0
        assert out.feature_cache_misses == 0


class TestFeatureLoadPricing:
    def test_zero_bytes_cost_nothing(self):
        router = Router(bridges(4))
        assert np.array_equal(
            router.price_feature_loads([0.0, 0.0, 0.0, 0.0]), np.zeros(4)
        )

    def test_negative_bytes_rejected(self):
        router = Router(bridges(4))
        with pytest.raises(ConfigurationError, match=">= 0"):
            router.price_feature_loads([-1.0, 0.0, 0.0, 0.0])

    def test_uncontended_is_flat_pcie_time(self):
        cluster = bridges(4)
        router = Router(cluster)
        times = router.price_feature_loads([1e6, 0.0, 2e6, 0.0])
        assert times[0] == pytest.approx(cluster.pcie.time(1e6))
        assert times[1] == 0.0
        assert times[2] == pytest.approx(cluster.pcie.time(2e6))

    def test_same_host_loads_queue_on_staging(self):
        cluster = bridges(4, contention=ContentionConfig())
        flat = Router(bridges(4)).price_feature_loads([1e6, 1e6, 0.0, 0.0])
        contended = Router(cluster).price_feature_loads([1e6, 1e6, 0.0, 0.0])
        # GPUs 0 and 1 share host 0's staging path: the second load
        # starts only after the first finishes, doubling its span
        service = cluster.pcie.time(1e6)
        assert contended[0] == pytest.approx(flat[0])
        assert contended[1] == pytest.approx(2 * service)

    def test_volume_scale_inflates_feature_bytes(self):
        cluster = bridges(4)
        scaled = Router(cluster, volume_scale=10.0).price_feature_loads(
            [1e6, 0, 0, 0]
        )
        # pricing sees paper-scale bytes: 1e6 raw * 10x volume scale
        assert scaled[0] == pytest.approx(cluster.pcie.time(1e7))


class TestWorkloadAccounting:
    def test_h2d_bytes_equal_misses_times_feature_size(self):
        out = run_task(_spec())
        assert out.ok, out.failure
        st = out.stats
        cfg = base_config()
        assert st.feature_cache_hits == 0  # plain placement: no buffer
        assert st.feature_cache_misses > 0
        assert st.feature_h2d_bytes == pytest.approx(
            st.feature_cache_misses * cfg.feature_nbytes
        )
        assert st.rounds == cfg.num_rounds

    def test_caching_reduces_bytes_without_changing_labels(self):
        plain = run_task(_spec())
        cached = run_task(
            _spec(cfg=replace(base_config(), cache_fraction=0.5))
        )
        assert plain.ok and cached.ok
        assert cached.labels_crc == plain.labels_crc
        assert cached.stats.feature_cache_hits > 0
        assert (
            cached.stats.feature_h2d_bytes < plain.stats.feature_h2d_bytes
        )

    def test_full_buffer_after_warmup_never_misses_twice(self):
        out = run_task(
            _spec(cfg=replace(base_config(), cache_fraction=1.0))
        )
        assert out.ok
        st = out.stats
        # capacity covers every local vertex: a vertex can miss at most
        # once (cold), so misses are bounded by the graph size
        assert st.feature_cache_misses <= 40  # fuzz shapes are tiny

    def test_tracer_counters_record_feature_traffic(self):
        from repro.frameworks.dirgl import DIrGL
        from repro.generators.datasets import load_dataset

        tracer = Tracer()
        fw = DIrGL(policy="iec", execution="sync")
        cfg = replace(base_config(), cache_fraction=0.5)
        with use_tracer(tracer):
            res = fw.run(
                "gnnflow",
                load_dataset(gnn_dataset("powerlaw")),
                num_gpus=4,
                platform="bridges:contended",
                check_memory=False,
                payload=cfg,
            )
        st = res.stats
        assert tracer.counters.get("feature.h2d_bytes") == pytest.approx(
            st.feature_h2d_bytes
        )
        assert tracer.counters.get("cache.hit") == st.feature_cache_hits
        assert tracer.counters.get("cache.miss") == st.feature_cache_misses
        assert st.feature_cache_hits > 0


class TestDifferential:
    """ISSUE 10: bit-identical gathers across executors and job counts."""

    @pytest.mark.parametrize("shape", GNN_SHAPES)
    @pytest.mark.parametrize("policy", GNN_POLICIES)
    def test_serial_vs_threads_engine_executor(self, shape, policy):
        cfg = replace(
            base_config(), cache_fraction=0.5, locality_sampling=True
        )
        serial = run_task(_spec(shape, policy, cfg))
        threads = run_task(
            _spec(shape, policy, cfg, engine_executor="threads")
        )
        assert serial.ok and threads.ok
        assert serial.labels_crc == threads.labels_crc
        for name in (
            "feature_h2d_bytes",
            "feature_cache_hits",
            "feature_cache_misses",
            "rounds",
        ):
            assert getattr(serial.stats, name) == getattr(
                threads.stats, name
            ), name

    def test_jobs_1_vs_2_byte_identical_report(self, tmp_path):
        serial = gnn_study(shapes=("powerlaw", "star"), policies=("iec", "cvc"))
        with SweepExecutor(jobs=2, cache_dir=str(tmp_path)) as ex:
            pooled = gnn_study(
                shapes=("powerlaw", "star"), policies=("iec", "cvc"),
                executor=ex,
            )
        assert serial.to_json() == pooled.to_json()


class TestEvaluateGnn:
    def test_clean_report_passes(self):
        report = gnn_study(shapes=("powerlaw",), policies=("iec",))
        assert evaluate_gnn(report) == []

    def test_weak_cache_fails_the_reduction_gate(self):
        report = gnn_study(shapes=("powerlaw",), policies=("iec",))
        weak = [
            r if r.placement != "cache"
            else r.__class__(**{**r.to_dict(), "h2d_bytes": report.row(
                "powerlaw", "iec", "plain").h2d_bytes * 0.9})
            for r in report.rows
        ]
        report.rows = weak
        violations = evaluate_gnn(report)
        assert any("gate" in v for v in violations)

    def test_report_round_trips_through_json(self):
        report = gnn_study(shapes=("star",), policies=("hvc",))
        clone = report.from_json(report.to_json())
        assert clone.to_json() == report.to_json()

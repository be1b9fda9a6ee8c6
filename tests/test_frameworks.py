"""Tests for the framework facades: restrictions, aliases, and correctness."""

import numpy as np
import pytest

from repro.errors import SimulatedOOMError, UnsupportedFeatureError
from repro.frameworks import DIrGL, FRAMEWORKS, Groute, Gunrock, Lux, get_framework
from repro.generators import load_dataset
from repro.validation import pagerank_close, reference_bfs, reference_cc, reference_pagerank


@pytest.fixture(scope="module")
def ds():
    return load_dataset("tiny-s")


class TestRegistry:
    def test_four_frameworks(self):
        assert set(FRAMEWORKS) == {"d-irgl", "lux", "gunrock", "groute"}

    def test_get_framework(self):
        assert isinstance(get_framework("lux"), Lux)

    def test_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_framework("ligra")


class TestRestrictions:
    def test_lux_iec_only(self):
        with pytest.raises(UnsupportedFeatureError):
            Lux(policy="cvc")

    def test_lux_missing_benchmarks(self, ds):
        with pytest.raises(UnsupportedFeatureError):
            Lux().run("bfs", ds, 2)

    def test_gunrock_single_host_only(self, ds):
        with pytest.raises(UnsupportedFeatureError):
            Gunrock().run("bfs", ds, 4, platform="bridges")

    def test_gunrock_pr_excluded(self, ds):
        with pytest.raises(UnsupportedFeatureError):
            Gunrock().run("pr", ds, 2, platform="tuxedo")

    def test_groute_single_host_only(self, ds):
        with pytest.raises(UnsupportedFeatureError):
            Groute().run("cc", ds, 8, platform="bridges")

    def test_dirgl_all_four_policies(self):
        for p in ("cvc", "oec", "iec", "hvc"):
            assert DIrGL(policy=p).policy == p

    def test_dirgl_rejects_random(self):
        with pytest.raises(UnsupportedFeatureError):
            DIrGL(policy="random")


class TestVariants:
    def test_variant_labels(self):
        assert DIrGL.var1().variant_label() == "TWC+AS+Sync"
        assert DIrGL.var2().variant_label() == "ALB+AS+Sync"
        assert DIrGL.var3().variant_label() == "ALB+UO+Sync"
        assert DIrGL.var4().variant_label() == "ALB+UO+Async"

    def test_var4_is_default(self):
        d = DIrGL()
        assert d.execution == "async"
        assert d.comm_config.update_only
        assert d.load_balancer == "alb"


class TestCorrectnessThroughFacades:
    def test_dirgl_bfs(self, ds):
        res = DIrGL(policy="cvc").run("bfs", ds, 4, check_memory=False)
        ref = reference_bfs(ds.graph, ds.source_vertex)
        assert np.array_equal(res.labels, ref)

    def test_gunrock_bfs_uses_direction_optimization(self, ds):
        res = Gunrock().run("bfs", ds, 4, platform="tuxedo", check_memory=False)
        ref = reference_bfs(ds.graph, ds.source_vertex)
        assert np.array_equal(res.labels, ref)

    def test_all_frameworks_agree_on_cc(self, ds):
        ref = reference_cc(ds.symmetric())
        for name, cls in FRAMEWORKS.items():
            fw = cls()
            platform = "tuxedo" if not fw.multi_host else "bridges"
            res = fw.run("cc", ds, 4, platform=platform, check_memory=False)
            assert np.array_equal(res.labels, ref), name

    def test_lux_and_dirgl_agree_on_pr(self, ds):
        ref = reference_pagerank(ds.graph, tol=1e-6, max_iter=2000)
        for fw in (Lux(), DIrGL(policy="iec", execution="sync")):
            res = fw.run("pr", ds, 4, check_memory=False)
            assert pagerank_close(res.labels, ref), fw.name

    def test_stats_labeled(self, ds):
        res = DIrGL.var1().run("bfs", ds, 2, check_memory=False)
        assert res.stats.variant == "TWC+AS+Sync"
        assert res.stats.dataset == "tiny-s"
        assert res.stats.benchmark == "bfs"


class TestMemoryBehavior:
    def test_lux_fails_on_medium_graph_small_gpu_count(self):
        """Lux's static allocation cannot hold a medium graph on few GPUs
        (the paper could not run Lux on any large graph at all)."""
        ds = load_dataset("uk07-s")
        with pytest.raises(SimulatedOOMError):
            Lux().run("pr", ds, 2)

    def test_dirgl_handles_medium_on_same_gpus(self):
        ds = load_dataset("uk07-s")
        res = DIrGL(policy="cvc", execution="sync").run("bfs", ds, 8)
        assert res.stats.memory_max_gb < 16

    def test_lux_volume_exceeds_dirgl_as(self, ds):
        """Explicit global IDs + AS make Lux's wire volume the largest."""
        lux = Lux().run("cc", ds, 4, check_memory=False)
        var2 = DIrGL.var2(policy="iec").run("cc", ds, 4, check_memory=False)
        assert lux.stats.comm_volume_bytes > var2.stats.comm_volume_bytes


class TestContextPaysPerUse:
    """``make_context`` computes what its app reads: only the apps that run
    on the symmetrized view (cc, kcore, mis) see its degrees, everyone else
    must not cost a ``make_undirected``."""

    @pytest.fixture
    def counting_ds(self, monkeypatch):
        import dataclasses

        # a private copy: the cached dataset may already be symmetrized
        ds = dataclasses.replace(load_dataset("tiny-s"), _symmetric=None)
        calls = []
        real = type(ds).symmetric_degrees

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(type(ds), "symmetric_degrees", counted)
        return ds, calls

    @pytest.mark.parametrize("app_name", ["bfs", "sssp", "pr", "pr-push", "bfs-do"])
    def test_directed_apps_never_symmetrize(self, counting_ds, app_name):
        ds, calls = counting_ds
        fw = DIrGL()
        ctx = fw.make_context(ds, fw.resolve_app(app_name), source=3)
        assert calls == [] and ds._symmetric is None
        assert ctx.global_degrees is None
        assert ctx.source == 3
        np.testing.assert_array_equal(ctx.global_out_degrees, ds.graph.out_degrees())
        fw.run(app_name, ds, 2)
        assert calls == [] and ds._symmetric is None

    @pytest.mark.parametrize("app_name", ["kcore", "mis", "cc"])
    def test_symmetric_apps_get_degrees_and_the_median_k(self, counting_ds, app_name):
        ds, calls = counting_ds
        fw = DIrGL()
        ctx = fw.make_context(ds, fw.resolve_app(app_name))
        assert calls == [1]
        deg = ds.symmetric().out_degrees()
        np.testing.assert_array_equal(ctx.global_degrees, deg)
        assert ctx.k == max(2, int(np.median(deg)))
        assert fw.make_context(ds, fw.resolve_app(app_name), k=7).k == 7

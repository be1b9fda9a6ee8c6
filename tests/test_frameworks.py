"""Tests for the framework facades: restrictions, aliases, and correctness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulatedOOMError, UnsupportedFeatureError
from repro.frameworks import DIrGL, FRAMEWORKS, Groute, Gunrock, Lux, get_framework
from repro.generators import load_dataset
from repro.runtime.cells import SystemSpec
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


#: Section IV-C's systems: (policy, balancer, update-only, execution, label)
SECTION_IV_C = {
    "lux": ("iec", "tb", False, "sync", "lux"),
    "var1": ("iec", "twc", False, "sync", "TWC+AS+Sync"),
    "var2": ("iec", "alb", False, "sync", "ALB+AS+Sync"),
    "var3": ("iec", "alb", True, "sync", "ALB+UO+Sync"),
    "var4": ("iec", "alb", True, "async", "ALB+UO+Async"),
}


class TestVariants:
    @pytest.mark.parametrize("name", sorted(SECTION_IV_C))
    def test_section_iv_c_row(self, name):
        policy, balancer, update_only, execution, label = SECTION_IV_C[name]
        fw = SystemSpec.variant(name).build()
        assert fw.policy == policy
        assert fw.load_balancer == balancer
        assert fw.comm_config.update_only is update_only
        # D-IrGL memoizes addresses in every variant; Lux ships global IDs
        assert fw.comm_config.memoize_addresses is (name != "lux")
        assert not fw.comm_config.hierarchical
        assert fw.execution == execution
        assert fw.variant_label() == label

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="var9"):
            SystemSpec.variant("var9")

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
        res = SystemSpec.variant("var1").build().run("bfs", ds, 2, check_memory=False)
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
        var2 = SystemSpec.variant("var2").build().run("cc", ds, 4, check_memory=False)
        assert lux.stats.comm_volume_bytes > var2.stats.comm_volume_bytes


class TestContextPaysPerUse:
    """``make_context`` computes what its app reads: only the apps that run
    on the symmetrized view (cc, kcore, mis) see its degrees, everyone else
    must not cost a ``make_undirected``."""

    @pytest.fixture
    def fresh_ds(self):
        import dataclasses

        # a private copy: the cached dataset may already be symmetrized
        return dataclasses.replace(load_dataset("tiny-s"), _symmetric=None)

    @pytest.mark.parametrize("app_name", ["bfs", "sssp", "pr", "pr-push", "bfs-do"])
    def test_directed_apps_never_symmetrize(self, fresh_ds, app_name):
        ds = fresh_ds
        fw = DIrGL()
        ctx = fw.make_context(ds, fw.resolve_app(app_name), source=3)
        assert ds._symmetric is None
        assert ctx.global_degrees is None
        assert ctx.source == 3
        np.testing.assert_array_equal(ctx.global_out_degrees, ds.graph.out_degrees())
        fw.run(app_name, ds, 2)
        assert ds._symmetric is None

    @pytest.mark.parametrize("app_name", ["kcore", "mis", "cc"])
    def test_symmetric_apps_get_degrees_and_the_median_k(self, fresh_ds, app_name):
        ds = fresh_ds
        fw = DIrGL()
        ctx = fw.make_context(ds, fw.resolve_app(app_name))
        assert ds._symmetric is not None
        deg = ds.symmetric().out_degrees()
        np.testing.assert_array_equal(ctx.global_degrees, deg)
        assert ctx.k == max(2, int(np.median(deg)))
        assert fw.make_context(ds, fw.resolve_app(app_name), k=7).k == 7


class TestSourceRange:
    """A source outside ``[0, |V|)`` is a configuration error that names
    the source and ``|V|``, not a run: every partition's ``to_local``
    answers ``-1`` for it, which would run the app from no source."""

    @pytest.mark.parametrize("source", [-1, 256])
    @pytest.mark.parametrize("app_name", ["bfs", "sssp"])
    def test_run_refuses_a_source_outside_the_graph(self, ds, app_name, source):
        assert ds.graph.num_vertices == 256
        with pytest.raises(ConfigurationError, match=rf"source vertex {source}\b.*256"):
            DIrGL("oec").run(app_name, ds, 4, source=source)

    @pytest.mark.parametrize("source", [-1, 256])
    def test_bc_context_refuses_a_source_outside_the_graph(self, ds, source):
        from repro.apps import BrandesForward

        with pytest.raises(ConfigurationError, match=rf"source vertex {source}\b.*256"):
            DIrGL("oec").make_context(ds, BrandesForward(), source=source)

    def test_the_edges_of_the_range_still_run(self, ds):
        for source in (0, 255):
            labels = DIrGL("oec").run("bfs", ds, 4, source=source).labels
            np.testing.assert_array_equal(labels, reference_bfs(ds.graph, source))

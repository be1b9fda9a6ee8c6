"""Tests for the graph generators."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import chunked, powerlaw_social, rmat, small_world, webcrawl
from repro.generators import sampling
from repro.generators.sampling import WeightedSampler
from repro.graph.properties import approximate_diameter


class TestRmat:
    def test_size(self):
        g = rmat(8, edge_factor=8, seed=0)
        assert g.num_vertices == 256
        assert g.num_edges == 2048

    def test_deterministic(self):
        a, b = rmat(8, seed=5), rmat(8, seed=5)
        assert a == b

    def test_seed_changes_graph(self):
        assert rmat(8, seed=1) != rmat(8, seed=2)

    def test_skewed_degrees(self):
        g = rmat(12, edge_factor=16, seed=0)
        deg = g.out_degrees()
        # power law: max degree far above average
        assert deg.max() > 10 * deg.mean()

    def test_uniform_quadrants_not_skewed(self):
        g = rmat(10, edge_factor=16, a=0.25, b=0.25, c=0.25, seed=0)
        deg = g.out_degrees()
        assert deg.max() < 6 * max(deg.mean(), 1)

    def test_dedup_reduces_edges(self):
        g1 = rmat(6, edge_factor=32, seed=0)
        g2 = rmat(6, edge_factor=32, seed=0, dedup=True)
        assert g2.num_edges < g1.num_edges

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            rmat(5, a=0.6, b=0.3, c=0.3)


class TestPowerlawSocial:
    def test_size_approx(self):
        g = powerlaw_social(1000, 20.0, seed=0)
        assert abs(g.num_edges - 20000) < 2000  # self-loop removal only

    def test_no_self_loops(self):
        g = powerlaw_social(500, 10.0, seed=0)
        assert not np.any(g.edge_sources() == g.indices)

    def test_hub_injection_raises_max_out_degree(self):
        base = powerlaw_social(2000, 20.0, seed=3)
        hubby = powerlaw_social(
            2000, 20.0, num_hubs=1, hub_degree_fraction=0.2, seed=3
        )
        assert hubby.out_degrees().max() > 2 * base.out_degrees().max()

    def test_asymmetry_lowers_in_skew(self):
        sym = powerlaw_social(3000, 20.0, in_out_symmetry=1.0, seed=4)
        asym = powerlaw_social(3000, 20.0, in_out_symmetry=0.3, seed=4)
        assert asym.in_degrees().max() < sym.in_degrees().max()

    def test_deterministic(self):
        assert powerlaw_social(300, 8.0, seed=9) == powerlaw_social(300, 8.0, seed=9)

    def test_too_small(self):
        with pytest.raises(ValueError):
            powerlaw_social(1, 4.0)


class TestWebcrawl:
    def test_size_approx(self):
        g = webcrawl(4000, 25.0, seed=0)
        assert abs(g.num_edges - 100_000) < 10_000

    def test_in_degree_dwarfs_out_degree(self):
        g = webcrawl(8000, 30.0, authority_share=0.35, max_out_degree=100, seed=0)
        assert g.in_degrees().max() > 5 * g.out_degrees().max()

    def test_tail_raises_diameter(self):
        flat = webcrawl(4000, 20.0, tail_length=0, seed=2)
        tailed = webcrawl(4000, 20.0, tail_length=200, seed=2)
        d_flat = approximate_diameter(flat, seed=0)
        d_tail = approximate_diameter(tailed, seed=0)
        assert d_tail >= d_flat + 150

    def test_deterministic(self):
        assert webcrawl(1000, 10.0, seed=5) == webcrawl(1000, 10.0, seed=5)

    def test_tail_too_long_rejected(self):
        with pytest.raises(ValueError):
            webcrawl(100, 5.0, tail_length=100)

    def test_no_self_loops_in_core(self):
        g = webcrawl(2000, 15.0, tail_length=0, seed=1)
        assert not np.any(g.edge_sources() == g.indices)


class TestSmallWorld:
    def test_ring_degrees(self):
        g = small_world(100, k=4, rewire_p=0.0, seed=0)
        assert np.all(g.out_degrees() == 4)

    def test_rewiring_shortens_diameter(self):
        ring = small_world(400, k=2, rewire_p=0.0, seed=0)
        sw = small_world(400, k=2, rewire_p=0.2, seed=0)
        assert approximate_diameter(sw, seed=0) < approximate_diameter(ring, seed=0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            small_world(10, k=10)


# ---------------------------------------------------------------------- #
# the weighted sampler: Generator.choice, draw for draw
# ---------------------------------------------------------------------- #
def _weights(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "uniform":
        w = np.ones(n)
    elif kind == "zipf":
        w = 1.0 / np.arange(1, n + 1)
    elif kind == "hub-heavy":  # one category holds half the mass
        w = rng.random(n) + 1e-3
        w[n // 2] = w.sum()
    elif kind == "zeros":  # runs of zero-probability categories
        w = rng.random(n) * (rng.random(n) < 0.3)
        w[0] = w[-1] = 0.0
        w[n // 3] += 1.0
    else:
        raise AssertionError(kind)
    return w / w.sum()


class ChoiceSampler:
    """What the generators called before :class:`WeightedSampler` — the
    reference its draws and the generators' edge lists are held to."""

    def __init__(self, p):
        self.p = p

    def draw(self, rng, size):
        return rng.choice(len(self.p), size=size, p=self.p)


class TestWeightedSampler:
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "hub-heavy", "zeros"])
    @pytest.mark.parametrize("n", [2, 3, 97, 4096, 40_912])  # five table sizes
    @pytest.mark.parametrize("size", [0, 1, 1000, 1 << 21])
    def test_equals_choice_and_leaves_the_generator_where_choice_does(
        self, kind, n, size
    ):
        if size == 1 << 21 and n not in (97, 40_912):
            return  # the 2 M-draw case runs at two table sizes
        p = _weights(kind, n)
        ref_rng, rng = np.random.default_rng(size + n), np.random.default_rng(size + n)
        want = ref_rng.choice(n, size=size, p=p)
        got = WeightedSampler(p).draw(rng, size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert rng.random() == ref_rng.random()  # same state afterwards

    def test_single_category(self):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = WeightedSampler([1.0]).draw(rng, 1000)
        np.testing.assert_array_equal(got, ref_rng.choice(1, size=1000, p=[1.0]))
        assert not got.any()
        assert rng.random() == ref_rng.random()

    def test_draws_spanning_blocks_are_one_stream(self, monkeypatch):
        """Blocking is invisible: any block size, same draws."""
        p = _weights("zipf", 500)
        want = np.random.default_rng(8).choice(500, size=10_000, p=p)
        for block in (1, 7, 4096, 10_000, 1 << 16):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            got = WeightedSampler(p).draw(np.random.default_rng(8), 10_000)
            np.testing.assert_array_equal(got, want)

    def test_guide_table_is_the_searched_one(self):
        """The counted table is ``cdf.searchsorted(b / K, "right")``."""
        for kind in ("uniform", "zipf", "hub-heavy", "zeros"):
            s = WeightedSampler(_weights(kind, 1000))
            k = s._buckets
            assert k & (k - 1) == 0 and k >= 1000 * sampling.GUIDE_BUCKETS_PER_CATEGORY
            want = s._cdf.searchsorted(np.arange(k + 1) / k, side="right")
            np.testing.assert_array_equal(s._guide, want)

    @pytest.mark.parametrize(
        "p",
        [[0.5, np.nan], [1.5, -0.5], [0.3, 0.3], [[0.5, 0.5]], []],
        ids=["nan", "negative", "sum", "2-d", "empty"],
    )
    def test_bad_p_raises_what_choice_raises(self, p):
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng(0).choice(len(p), size=0, p=p)
        with pytest.raises(ValueError) as ours:
            WeightedSampler(p)
        assert str(theirs.value).startswith(str(ours.value))


class TestGeneratorsOverTheSampler:
    """``webcrawl`` and ``powerlaw_chunks`` with the sampler swapped for the
    ``Generator.choice`` reference are the parent's generators; the edge
    lists must not differ.  (The registry datasets are pinned by hash in
    ``tests/cases/dataset_golden.json``.)"""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 3000),
        avg_degree=st.floats(0.5, 12.0),
        authority_share=st.floats(0.0, 0.6),
        tail=st.integers(0, 1),
        seed=st.integers(0, 2**20),
    )
    def test_webcrawl(self, n, avg_degree, authority_share, tail, seed):
        # ``import a.b as mod`` would bind the function the package re-exports
        mod = importlib.import_module("repro.generators.webcrawl")
        params = dict(
            authority_share=authority_share, authority_fraction=0.01,
            tail_length=tail * (n // 4), max_out_degree=50, seed=seed,
        )
        got = webcrawl(n, avg_degree, **params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mod, "WeightedSampler", ChoiceSampler)
            want = webcrawl(n, avg_degree, **params)
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 2000),
        avg_degree=st.floats(0.5, 8.0),
        num_hubs=st.integers(0, 2),
        symmetry=st.floats(0.5, 1.0),
        chunk_edges=st.integers(1, 5000),
        seed=st.integers(0, 2**20),
    )
    def test_powerlaw_chunks_any_chunking(
        self, n, avg_degree, num_hubs, symmetry, chunk_edges, seed
    ):
        def blocks():
            return list(chunked.powerlaw_chunks(
                n, avg_degree, num_hubs=min(num_hubs, n),
                in_out_symmetry=symmetry, seed=seed, chunk_edges=chunk_edges,
            ))

        got = blocks()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chunked, "WeightedSampler", ChoiceSampler)
            want = blocks()
        assert len(got) == len(want)
        for (gs, gd), (ws, wd) in zip(got, want):
            assert gs.dtype == ws.dtype == gd.dtype == wd.dtype == np.int64
            np.testing.assert_array_equal(gs, ws)
            np.testing.assert_array_equal(gd, wd)

"""Tests for the Table I dataset registry, and the golden table ``dataset``."""

import zlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.generators import DATASETS, dataset_names, load_dataset
from repro.graph import make_undirected
from repro.graph.properties import approximate_diameter
from repro.partition.metis_like import bfs_order
from tests import golden


def _row(graph) -> dict:
    return {
        "content_hash": graph.content_hash(),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }


def dataset_row(name: str) -> dict:
    """One registry dataset as ``load_dataset`` hands it out (weighted)
    and its weighted symmetrization, ``make_undirected(graph)``, called
    directly so the suite does not keep ten symmetric graphs alive.
    ``Dataset.symmetric()`` is its topology: the same ``indptr`` /
    ``indices`` without weights (``TestLoad.test_symmetric_is_topology_only``).
    ``traversal`` is what the undirected BFS waves compute on it (Table I's
    diameter, metis-like's ordering)."""
    graph = load_dataset(name).graph
    return {name: {
        "weighted": _row(graph),
        "symmetric": _row(make_undirected(graph)),
        "traversal": {
            "approx_diameter": approximate_diameter(graph, seed=0),
            "bfs_order_crc": zlib.crc32(bfs_order(graph).tobytes()),
        },
    }}


#: one group per registry dataset (``tests/golden.py``)
GROUPS = {name: partial(dataset_row, name) for name in DATASETS}


def test_every_registry_dataset_matches_the_golden_table():
    """Recorded at the parent of PR 20 (``d7da598``, ``Generator.choice``
    under the generators); ``expected.json`` only pins three of them.  The
    ``traversal`` rows were recorded at the parent of PR 22 (``336951d``,
    the private ``_expand`` + ``np.unique`` loops)."""
    golden.check("dataset")


class TestRegistry:
    def test_nine_paper_inputs(self):
        assert len(dataset_names()) == 9

    def test_categories(self):
        assert dataset_names("small") == ["rmat23-s", "orkut-s", "indochina04-s"]
        assert dataset_names("medium") == ["twitter50-s", "friendster-s", "uk07-s"]
        assert dataset_names("large") == ["clueweb12-s", "uk14-s", "wdc14-s"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_test_dataset_hidden_by_default(self):
        assert "tiny-s" not in dataset_names()
        assert "tiny-s" in dataset_names(include_test=True)


class TestLoad:
    def test_load_cached(self):
        a = load_dataset("tiny-s")
        b = load_dataset("tiny-s")
        assert a is b

    def test_weighted_by_default(self):
        ds = load_dataset("tiny-s")
        assert ds.graph.has_weights

    def test_scale_factor(self):
        ds = load_dataset("rmat23-s")
        assert np.isclose(
            ds.scale_factor, DATASETS["rmat23-s"].paper.num_edges / ds.graph.num_edges
        )
        assert ds.scale_factor > 100  # stand-ins are much smaller than paper inputs

    def test_source_vertex_is_max_out_degree(self):
        ds = load_dataset("tiny-s")
        deg = ds.graph.out_degrees()
        assert deg[ds.source_vertex] == deg.max()

    def test_symmetric_cached_and_symmetric(self):
        ds = load_dataset("tiny-s")
        sym = ds.symmetric()
        assert sym is ds.symmetric()
        assert np.array_equal(sym.out_degrees(), sym.in_degrees())

    def test_symmetric_is_topology_only(self):
        """cc, kcore and mis read no weight: the symmetric view holds none,
        and its topology is the weighted symmetrization's."""
        ds = load_dataset("rmat23-s")
        sym, full = ds.symmetric(), make_undirected(ds.graph)
        assert ds.graph.has_weights and full.has_weights
        assert sym.weights is None
        assert np.array_equal(sym.indptr, full.indptr)
        assert np.array_equal(sym.indices, full.indices)


class TestStoreLoadsAreTheSameInput:
    """A graph opened from a store container, read back from an edge list
    or served as a snapshot is the input the same graph is in RAM: one
    symmetric degree (``symmetric().out_degrees()``) picks the default
    kcore ``k`` on every path, so the labels agree."""

    NAME = "fuzz:powerlaw:3"

    def test_the_graph_tells_the_two_old_degrees_apart(self):
        # out + in double-counts reciprocal edges; on this graph that moves
        # the default k (3 vs 4), so a second degree definition would too
        ds = load_dataset(self.NAME)
        g = ds.graph
        ks = [max(2, int(np.median(d))) for d in (
            ds.symmetric().out_degrees(), g.out_degrees() + g.in_degrees()
        )]
        assert ks[0] != ks[1]

    @pytest.mark.parametrize("app", [
        "bfs", "bfs-do", "sssp", "cc", "cc-pj", "pr", "pr-push", "kcore", "mis",
    ])
    def test_ram_and_store_paths_give_identical_labels(self, tmp_path, app):
        """One input, every route: a graph in RAM, opened from a store
        container in either mode, read back from an edge list and served
        as a ``serve:`` snapshot runs to the same labels — and the
        registry's ``tiny-s``, generated chunk by chunk into a store,
        too."""
        from repro.frameworks import DIrGL
        from repro.fuzz.gen import SHAPES
        from repro.generators.chunked import build_store
        from repro.generators.datasets import Dataset, fuzz_dataset
        from repro.graph.io import load_edgelist, save_edgelist
        from repro.graph.store import write_csr_store

        names = [self.NAME, "tiny-s", *(fuzz_dataset(shape, 1) for shape in SHAPES)]
        for i, name in enumerate(names):
            ds = load_dataset(name)
            g = ds.graph
            store, edges = str(tmp_path / f"{i}.csr"), str(tmp_path / f"{i}.el")
            write_csr_store(g, store)
            save_edgelist(g, edges)
            routes = {
                mode: load_dataset(f"store+{mode}:{store}") for mode in ("ram", "mmap")
            }
            for stored in routes.values():
                assert stored.category == "store" and stored.scale_factor == 1.0
            # an empty file auto-detects as unweighted: say what was written
            routes["edgelist"] = Dataset(name, ds.category, load_edgelist(
                edges, num_vertices=g.num_vertices, weighted=g.has_weights,
            ), 1.0)
            routes["serve"] = Dataset(f"serve:{g.content_hash()[:16]}", "serve", g, 1.0)
            if name == "tiny-s":
                chunked = str(tmp_path / "chunked.csr")
                build_store("rmat", 8, chunked, edge_factor=4.0, seed=1)
                routes["chunked"] = load_dataset(f"store+ram:{chunked}")
                assert routes["chunked"].graph.num_edges == 1024
                assert routes["chunked"].graph.content_hash() == g.content_hash()
            want = DIrGL("oec").run(app, ds, 2).labels
            for route, other in routes.items():
                # a registry stand-in is priced at paper scale and an async
                # run interleaves by the simulated clock: a route runs at
                # the scale of the input it carries (1.0 for a fuzz shape)
                other = replace(other, scale_factor=ds.scale_factor)
                np.testing.assert_array_equal(
                    DIrGL("oec").run(app, other, 2).labels, want,
                    err_msg=f"{name} via {route}",
                )


@pytest.mark.parametrize("mode", ["ram", "mmap"])
def test_a_store_name_loads_the_file_now_at_its_path(tmp_path, mode):
    """A path names a file, not a graph: a container rewritten at the path
    is what the next load of the same name returns, never the graph an
    earlier load of that name saw."""
    from repro.graph.builder import from_edges
    from repro.graph.store import write_csr_store

    path = str(tmp_path / "g.csr")
    name = f"store+{mode}:{path}"
    a = from_edges([0, 1], [1, 2], num_vertices=3)
    b = from_edges([0, 1, 2], [1, 2, 0], num_vertices=3)
    write_csr_store(a, path)
    assert load_dataset(name).graph.content_hash() == a.content_hash()
    write_csr_store(b, path)
    again = load_dataset(name).graph
    assert again.num_edges == 3
    assert again.content_hash() == b.content_hash()


@pytest.mark.parametrize("mode", ["ram", "mmap"])
@pytest.mark.parametrize("where", ["missing", "a directory"])
def test_a_store_name_without_a_container_is_an_unknown_dataset(
    tmp_path, mode, where
):
    from repro.errors import UnknownDatasetError

    path = tmp_path / "missing.csr" if where == "missing" else tmp_path
    with pytest.raises(UnknownDatasetError, match=f"no store container at '{path}'"):
        load_dataset(f"store+{mode}:{path}")


class TestFuzzNameValidation:
    """``fuzz:<shape>:<seed>`` parsing: every malformed name must raise
    the registry's KeyError with the malformed/unknown message — no bare
    ValueError from ``int()`` or numpy's rng, no bare KeyError from the
    shape lookup."""

    @pytest.mark.parametrize(
        "name",
        [
            "fuzz:powerlaw",          # missing seed
            "fuzz:powerlaw:1:extra",  # too many fields
            "fuzz:powerlaw:",         # empty seed
            "fuzz:powerlaw:x",        # non-integer seed
            "fuzz:powerlaw:1.5",      # float seed
            "fuzz:powerlaw:-3",       # negative seed (rng would reject)
            "fuzz:powerlaw:+1",       # int() would accept; alias of "1"
            "fuzz:powerlaw: 1",       # int() would accept; alias of "1"
            "fuzz:powerlaw:1_0",      # int() would accept; alias of "10"
            "fuzz:powerlaw:١",        # unicode digit; alias of "1"
        ],
    )
    def test_malformed_names_raise_the_registry_error(self, name):
        with pytest.raises(KeyError, match="malformed fuzz dataset"):
            load_dataset(name)

    def test_unknown_shape_raises_the_registry_error(self):
        with pytest.raises(KeyError, match="unknown fuzz shape"):
            load_dataset("fuzz:nope:1")

    def test_valid_names_still_load(self):
        ds = load_dataset("fuzz:powerlaw:7")
        assert ds.graph.num_vertices > 0
        assert ds.category == "fuzz"


class TestShapeFidelity:
    """Shape statistics that the study's conclusions depend on."""

    def test_all_stand_ins_generate(self):
        for name in dataset_names():
            ds = load_dataset(name)
            assert ds.graph.num_edges > 0

    def test_average_degree_tracks_paper(self):
        for name in dataset_names():
            ds = load_dataset(name)
            paper = DATASETS[name].paper
            paper_avg = paper.num_edges / paper.num_vertices
            ours = ds.graph.num_edges / ds.graph.num_vertices
            assert ours == pytest.approx(paper_avg, rel=0.35), name

    def test_webcrawls_have_in_degree_blowup(self):
        # the trait behind ALB's win on pull pagerank (Section V-B2)
        for name in ["indochina04-s", "uk07-s", "clueweb12-s", "uk14-s", "wdc14-s"]:
            g = load_dataset(name).graph
            assert g.in_degrees().max() > 4 * g.out_degrees().max(), name

    def test_uk14_has_longest_tail(self):
        d_uk14 = approximate_diameter(load_dataset("uk14-s").graph, seed=0)
        d_cw = approximate_diameter(load_dataset("clueweb12-s").graph, seed=0)
        assert d_uk14 > 2 * d_cw

    def test_twitter_has_extreme_out_hub(self):
        g = load_dataset("twitter50-s").graph
        deg = g.out_degrees()
        assert deg.max() > 50 * deg.mean()

    def test_scale_factors_ordered_by_size(self):
        small = load_dataset("rmat23-s").scale_factor
        large = load_dataset("wdc14-s").scale_factor
        assert large > small

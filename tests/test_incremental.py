"""Incremental re-execution must be bit-identical to from-scratch runs.

The heavy matrix drives :func:`repro.fuzz.cases.run_case`'s mutation
leg — every cell runs the engine on the base graph, applies seeded
insert/delete batches, re-runs the engine from scratch on the mutated
snapshot, and demands the incremental path (when it claims exactness)
match the from-scratch labels byte-for-byte.  All 13 fuzz shapes are
covered on both engines.

The unit tests below pin the decision logic itself: which batches take
the delta path, which fall back, and why.

The golden table ``incremental`` (``tests/cases/incremental_golden.json``)
pins what the delta path *returns*: ``(labels CRC, work_edges, rounds,
reason)`` of ``incremental_run`` for the 13 fuzz shapes x {bfs, sssp, cc}
x one insert-only and one delete-bearing batch, recorded at ``336951d``
from the hand-rolled ``_relax_sweep`` / ``_min_label_sweep`` loops.  The
sweep is now ``spmv.spmsv_push`` to the fixpoint and must reproduce every
row at every ``REPRO_BLOCK_EDGES`` its registry entry lists
(``tests/golden.py``; the loops were unblocked).
"""

import zlib
from functools import partial

import numpy as np
import pytest

from repro.constants import INF
from repro.fuzz.cases import Case, run_case
from repro.fuzz.fuzzer import _sample_mutations
from repro.fuzz.gen import SHAPES, build_shape
from repro.graph import EdgeBatch, MutableGraph, from_edges
from repro.graph.transform import add_random_weights, make_undirected
from repro.serve.incremental import DELTA_APPS, incremental_run
from repro.validation import reference_bfs, reference_cc, reference_sssp
from tests import golden

ENGINES = ("bsp", "basp")
#: one delta-capable app per label family: hop counts, weighted
#: distances, components (all async-capable, so both engines run them)
APPS = ("bfs", "sssp", "cc")


def _case_for(shape: str, engine: str, app: str) -> Case:
    rng = np.random.default_rng([hash(shape) % 2**32, len(app)])
    graph = build_shape(shape, rng)
    symmetric = app in ("cc", "cc-pj")
    if symmetric:
        graph = add_random_weights(
            make_undirected(graph), seed=int(rng.integers(2**31))
        )
    mutations = _sample_mutations(rng, graph, symmetric=symmetric)
    if not mutations:
        # n == 0 (the empty shape): still cover the empty-batch delta path
        mutations = [{"timestamp": 1, "insert": [], "delete": []}]
    return Case.from_graph(
        graph, app=app, policy="oec", parts=2, engine=engine,
        mutations=mutations, shape=shape,
        note=f"incremental equivalence {shape}/{engine}/{app}",
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_incremental_matches_full(shape, engine):
    """run_case's mutation leg raises CaseFailure on any divergence."""
    for app in APPS:
        labels = run_case(_case_for(shape, engine, app), check="cheap")
        assert labels is not None


# ---------------------------------------------------------------------- #
_REFERENCES = {
    "bfs": reference_bfs,
    "sssp": reference_sssp,
    "cc": lambda graph, source: reference_cc(graph),
}


def incremental_rows(shape: str) -> dict:
    """Per app, three random inserts, and two deletes of live edges beside
    two inserts (mirrored on cc's symmetric graphs), through
    ``incremental_run`` from the reference labels of the old graph."""
    rows = {}
    for app in APPS:
        rng = np.random.default_rng([22, zlib.crc32(shape.encode()), len(app)])
        graph = build_shape(shape, rng)
        symmetric = app == "cc"
        if symmetric:
            graph = add_random_weights(make_undirected(graph), seed=22)
        n = graph.num_vertices
        prior = _REFERENCES[app](graph, int(np.argmax(graph.out_degrees())))
        for kind, k_ins, k_del in (("insert", 3, 0), ("delete", 2, 2)):
            ins = rng.integers(0, n, (k_ins, 2))
            live = np.stack([graph.edge_sources(), graph.indices], axis=1)
            picks = rng.choice(len(live), size=min(k_del, len(live)), replace=False)
            dele = live[picks].astype(np.int64)
            if symmetric:
                ins = np.concatenate([ins, ins[:, ::-1]])
                dele = np.concatenate([dele, dele[:, ::-1]])
            mg = MutableGraph(graph)
            mg.apply(EdgeBatch(
                timestamp=1,
                insert_src=ins[:, 0], insert_dst=ins[:, 1],
                delete_src=dele[:, 0], delete_dst=dele[:, 1],
            ))
            res = incremental_run(app, graph, mg.snapshot(), mg.log, prior)
            rows[f"{shape}/{app}/{kind}"] = {
                "labels_crc": (
                    None if res.labels is None
                    else zlib.crc32(np.ascontiguousarray(res.labels).tobytes())
                ),
                "work_edges": int(res.work_edges),
                "rounds": int(res.rounds),
                "reason": f"{res.mode}: {res.reason}",
            }
    return rows


GROUPS = {shape: partial(incremental_rows, shape) for shape in sorted(SHAPES)}


@pytest.mark.parametrize(
    "env", golden.TABLES["incremental"].envs,
    ids=[str(e["REPRO_BLOCK_EDGES"]) for e in golden.TABLES["incremental"].envs],
)
def test_incremental_matches_golden(env):
    """None missing, none stale, none moved — at each block budget."""
    golden.check("incremental", env=env)


# ---------------------------------------------------------------------- #
def _chain(weighted=False):
    w = np.array([2, 3], dtype=np.uint32) if weighted else None
    return from_edges([0, 1], [1, 2], num_vertices=5, weights=w)


class TestDeltaDecisions:
    def test_insert_only_takes_delta_path(self):
        g = _chain()
        prior = reference_bfs(g, 0)
        mg = MutableGraph(g)
        mg.insert_edges([2], [3], timestamp=1)
        new = mg.snapshot()
        res = incremental_run("bfs", g, new, mg.log, prior)
        assert res.mode == "delta"
        assert res.labels is not None
        assert res.labels.dtype == prior.dtype
        assert np.array_equal(res.labels, reference_bfs(new, 0))
        assert res.labels[3] == 3  # the inserted edge extended the chain

    def test_sssp_insert_uses_weights(self):
        g = _chain(weighted=True)
        prior = reference_sssp(g, 0)
        mg = MutableGraph(g)
        mg.insert_edges([0], [2], weights=[1], timestamp=1)  # shortcut
        new = mg.snapshot()
        res = incremental_run("sssp", g, new, mg.log, prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, reference_sssp(new, 0))
        assert res.labels[2] == 1  # shortcut beats the 2+3 chain

    def test_tight_delete_forces_full(self):
        g = _chain()
        prior = reference_bfs(g, 0)
        mg = MutableGraph(g)
        mg.delete_edges([1], [2], timestamp=1)  # lies on the only path
        res = incremental_run("bfs", g, mg.snapshot(), mg.log, prior)
        assert res.mode == "full"
        assert res.labels is None
        assert "shortest path" in res.reason

    def test_slack_delete_keeps_delta(self):
        # (0,2) direct edge w=5 is slack: the 2+3 chain is tight instead
        g = from_edges([0, 1, 0], [1, 2, 2], num_vertices=3,
                       weights=np.array([2, 3, 9], dtype=np.uint32))
        prior = reference_sssp(g, 0)
        mg = MutableGraph(g)
        mg.delete_edges([0], [2], timestamp=1)
        new = mg.snapshot()
        res = incremental_run("sssp", g, new, mg.log, prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, reference_sssp(new, 0))

    def test_cc_any_effective_delete_forces_full(self):
        g = make_undirected(_chain())
        prior = reference_cc(g)
        mg = MutableGraph(g)
        mg.delete_edges([0, 1], [1, 0], timestamp=1)
        res = incremental_run("cc", g, mg.snapshot(), mg.log, prior)
        assert res.mode == "full"
        assert res.labels is None

    def test_cc_insert_merges_components(self):
        g = make_undirected(from_edges([0, 2], [1, 3], num_vertices=4))
        prior = reference_cc(g)
        assert prior[2] == 2  # two components before the merge
        mg = MutableGraph(g)
        mg.insert_edges([1, 2], [2, 1], timestamp=1)
        new = mg.snapshot()
        res = incremental_run("cc", g, new, mg.log, prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, reference_cc(new))
        assert (res.labels == 0).all()  # one component now

    def test_delete_of_never_present_pair_is_safe(self):
        g = _chain()
        prior = reference_bfs(g, 0)
        mg = MutableGraph(g)
        mg.delete_edges([3], [4], timestamp=1)  # pair the graph never had
        res = incremental_run("bfs", g, mg.snapshot(), mg.log, prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, prior)

    def test_empty_batch_list_copies_prior(self):
        g = _chain()
        prior = reference_bfs(g, 0)
        res = incremental_run("bfs", g, g, [], prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, prior)
        assert res.labels is not prior  # a copy, not an alias

    def test_float_apps_always_full(self):
        g = _chain()
        assert "pr" not in DELTA_APPS
        res = incremental_run(
            "pr", g, g, [], np.zeros(5, dtype=np.float64)
        )
        assert res.mode == "full"
        assert res.labels is None

    def test_unreachable_seed_stays_inert(self):
        # insert between two vertices the source never reaches: the sweep
        # must not invent finite distances out of INF seeds
        g = _chain()
        prior = reference_bfs(g, 0)
        assert prior[3] == INF and prior[4] == INF
        mg = MutableGraph(g)
        mg.insert_edges([3], [4], timestamp=1)
        new = mg.snapshot()
        res = incremental_run("bfs", g, new, mg.log, prior)
        assert res.mode == "delta"
        assert np.array_equal(res.labels, reference_bfs(new, 0))
        assert res.labels[4] == INF

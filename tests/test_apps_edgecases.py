"""Degenerate-graph matrix: every app x pathological shape x engine.

Three PRs of optimization were validated on healthy R-MAT graphs; these
shapes are the ones that break hidden assumptions — no edges at all, a
single vertex, pure self-loops, a star (one high-degree hub), and a path
(maximum diameter).  Each cell runs through the fuzz-case replay path at
FULL check level, which verifies runtime invariants *and* compares the
final labels against the single-machine reference.
"""

import numpy as np
import pytest

from repro.apps import APPS, get_app
from repro.apps.registry import SYMMETRIC_APPS
from repro.fuzz.cases import Case, run_case
from repro.graph.builder import from_edges
from repro.graph.transform import add_random_weights, make_undirected

_E = np.empty(0, dtype=np.int64)


def _shapes():
    n = 9
    return {
        "empty": from_edges(_E, _E, num_vertices=6, name="edge-empty"),
        "single-vertex": from_edges(_E, _E, num_vertices=1, name="edge-one"),
        "single-vertex-loop": from_edges([0], [0], num_vertices=1,
                                         name="edge-one-loop"),
        "self-loops": from_edges(np.arange(6), np.arange(6),
                                 num_vertices=6, name="edge-loops"),
        "star": from_edges(np.zeros(n - 1, dtype=np.int64),
                           np.arange(1, n), num_vertices=n,
                           name="edge-star"),
        "star-in": from_edges(np.arange(1, n),
                              np.zeros(n - 1, dtype=np.int64),
                              num_vertices=n, name="edge-star-in"),
        "path": from_edges(np.arange(n - 1), np.arange(1, n),
                           num_vertices=n, name="edge-path"),
    }


SHAPES = _shapes()


def _case(app_name: str, shape: str, engine: str) -> Case:
    graph = SHAPES[shape]
    if app_name in SYMMETRIC_APPS:
        graph = make_undirected(graph)
    graph = add_random_weights(graph, seed=13)
    return Case.from_graph(
        graph, app=app_name, policy="cvc" if engine == "bsp" else "oec",
        parts=3, engine=engine, shape=shape, k=2,
        note=f"edge-case {shape}",
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_edge_case_bsp(app_name, shape):
    labels = run_case(_case(app_name, shape, "bsp"), check="full")
    assert labels is not None


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize(
    "app_name",
    sorted(a for a in APPS if get_app(a).async_capable),
)
def test_edge_case_basp(app_name, shape):
    labels = run_case(_case(app_name, shape, "basp"), check="full")
    assert labels is not None


def test_more_partitions_than_vertices():
    # empty partitions must be structurally valid and produce the answer
    g = add_random_weights(
        from_edges([0, 1], [1, 2], num_vertices=3, name="edge-tiny"), seed=1
    )
    case = Case.from_graph(g, app="bfs", policy="oec", parts=8,
                           engine="bsp", shape="tiny")
    labels = run_case(case, check="full")
    assert labels is not None

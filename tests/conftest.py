"""Shared fixtures: small graphs and run contexts used across test modules."""

import numpy as np
import pytest

from repro.engine import RunContext
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected


@pytest.fixture()
def boundary_calls(monkeypatch):
    """Counting wrappers on three functions the layered benchmark shims
    (``benchmarks/perf/layers.py``), installed on the classes the way its
    ``patched()`` does.  Returns the live ``{name: calls}`` dict."""
    from repro.comm.gluon import GluonComm
    from repro.comm.router import Router
    from repro.engine.costmodel import CostModel

    calls = {}
    for owner, name in (
        (GluonComm, "apply_reduce"),
        (CostModel, "compute_time"),
        (Router, "price_batch"),
    ):
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def counting(*args, _raw=vars(owner)[name], _key=key, **kwargs):
            calls[_key] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture(scope="session")
def small_graph():
    """A weighted directed power-law graph (512 vertices, ~4k edges)."""
    return add_random_weights(rmat(9, edge_factor=8, seed=3), seed=0)


@pytest.fixture(scope="session")
def small_sym(small_graph):
    """Its symmetrized counterpart (for cc / kcore)."""
    return add_random_weights(make_undirected(small_graph), seed=1)


@pytest.fixture(scope="session")
def ctx(small_graph, small_sym):
    """A run context covering every app's needs on the small graph."""
    return RunContext(
        num_global_vertices=small_graph.num_vertices,
        source=int(np.argmax(small_graph.out_degrees())),
        k=8,
        global_out_degrees=small_graph.out_degrees(),
        global_degrees=small_sym.out_degrees(),
    )

"""Shared fixtures: small graphs and run contexts used across test modules."""

import numpy as np
import pytest

from repro.engine import RunContext
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected


#: the layers whose boundary rows the engines reach during a run
ENGINE_RUN_LAYERS = ("comm", "engine", "hw", "loadbalance", "la")

#: the rows one BSP and one BASP run of pr must reach by late lookup:
#: extract, apply, price, compute pricing and the load balancer under it
REACHED_BY_A_PR_RUN = (
    "GluonComm.make_reduce_messages", "GluonComm.make_broadcast_messages",
    "GluonComm.apply_reduce", "GluonComm.apply_broadcast",
    "Router.price_batch", "CostModel.compute_time", "LoadBalancer.cost",
)


@pytest.fixture()
def boundary_calls(monkeypatch):
    """Counting wrappers on every comm/engine/hw/loadbalance/la row of the
    layered benchmark's own boundary table
    (``benchmarks.perf.layers.boundaries()``), installed the way its
    ``patched()`` installs its shims: resolved with ``vars(owner)[name]``
    (a renamed or inherited boundary is a ``KeyError`` here, as it would
    be in every traced benchmark run) and set on the owner.  Returns the
    live ``{"Owner.name": calls}`` dict."""
    from benchmarks.perf.layers import boundaries

    calls = {}
    for span_key, owner, name in boundaries():
        if span_key.split(".")[0] not in ENGINE_RUN_LAYERS:
            continue  # (the partition rows' owner is a dict)
        key = f"{owner.__name__.rpartition('.')[2]}.{name}"
        if key in calls:
            continue
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

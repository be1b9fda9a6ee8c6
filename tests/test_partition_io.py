"""The partition file: one section container behind both entry-point pairs.

``save_partitions`` / ``load_partitions`` (RAM, CRC-verified) and
``save_partition_shards`` / ``load_partition_shards`` (the same file plus a
``g2l`` section, served as memmap views) must hand back *the*
``PartitionedGraph`` that was saved — every array with its dtype, both
exchange dicts in their iteration order — so that an engine cannot tell a
loaded partitioning from a built one.  The CSR store is the container's
other caller; its bytes on disk are pinned here, its behaviour in
``tests/test_graph_store.py``.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine
from repro.engine.operator import RunContext
from repro.errors import GraphFormatError, PartitioningError
from repro.fuzz.gen import SHAPES, build_shape
from repro.generators import rmat
from repro.generators.chunked import build_store
from repro.graph import CSRGraph, add_random_weights, make_undirected
from repro.graph.store import write_csr_store
from repro.hw import bridges
from repro.partition import partition
from repro.partition.io import (
    load_partition_shards,
    load_partitions,
    save_partition_shards,
    save_partitions,
)

ENTRY_POINTS = {
    "ram": (save_partitions, load_partitions),
    "mmap": (save_partition_shards, load_partition_shards),
}
POLICIES = ("oec", "iec", "hvc", "cvc")
PARTS = (1, 2, 4, 7)


def _same_array(a, b, what):
    assert a.dtype == b.dtype, what
    np.testing.assert_array_equal(a, b, err_msg=what)


def assert_same_partitioning(want, got):
    """Everything a ``PartitionedGraph`` holds, dtypes and dict order too."""
    assert got.policy == want.policy
    assert got.grid == want.grid
    assert got.global_graph is want.global_graph
    _same_array(want.vertex_owner, got.vertex_owner, "vertex_owner")
    assert len(got.parts) == len(want.parts)
    for a, b in zip(want.parts, got.parts):
        tag = f"partition {a.pid}"
        assert b.pid == a.pid
        assert b.graph.name == a.graph.name
        assert b.graph.has_weights == a.graph.has_weights, tag
        _same_array(a.graph.indptr, b.graph.indptr, f"{tag} indptr")
        _same_array(a.graph.indices, b.graph.indices, f"{tag} indices")
        if a.graph.has_weights:
            _same_array(a.graph.weights, b.graph.weights, f"{tag} weights")
        _same_array(a.local_to_global, b.local_to_global, f"{tag} l2g")
        _same_array(a.global_to_local, b.global_to_local, f"{tag} g2l")
        _same_array(a.is_master, b.is_master, f"{tag} is_master")
        for side in ("mirror_exchange", "master_exchange"):
            ea, eb = getattr(a, side), getattr(b, side)
            assert list(eb) == list(ea), f"{tag} {side} peer order"
            assert all(type(q) is int for q in eb)
            for q in ea:
                _same_array(ea[q], eb[q], f"{tag} {side}[{q}]")


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(POLICIES),
    parts=st.sampled_from(PARTS),
    weighted=st.booleans(),
    entry=st.sampled_from(sorted(ENTRY_POINTS)),
)
def test_round_trip(shape, seed, policy, parts, weighted, entry, tmp_path):
    """The 13 fuzz shapes reach what the generators do not: empty graphs,
    partitions without a vertex, masters without an edge, P=1 (no exchange
    list at all) and P=7 (ragged cvc grid)."""
    g = build_shape(shape, np.random.default_rng(seed))  # comes weighted
    if not weighted:
        g = CSRGraph(g.indptr, g.indices, name=g.name)
    pg = partition(g, policy, parts, cache=False)
    save, load = ENTRY_POINTS[entry]
    path = tmp_path / f"{shape}-{seed}-{policy}-{parts}-{weighted}-{entry}.parts"
    save(pg, path)
    got = load(path, g)
    assert_same_partitioning(pg, got)
    got.validate()
    served_from_file = isinstance(got.vertex_owner, np.memmap)
    assert served_from_file == (entry == "mmap")


def test_every_shape_and_policy_round_trips(tmp_path):
    """The full matrix once, not sampled: 13 shapes x 4 policies x both
    entry-point pairs at the ragged P=7."""
    for shape in sorted(SHAPES):
        g = build_shape(shape, np.random.default_rng(3))
        for policy in POLICIES:
            pg = partition(g, policy, 7, cache=False)
            for entry, (save, load) in ENTRY_POINTS.items():
                path = tmp_path / f"{shape}-{policy}-{entry}.parts"
                save(pg, path)
                assert_same_partitioning(pg, load(path, g))


def test_exchange_order_is_the_dicts_not_sorted(tmp_path):
    """A partitioning whose exchange dicts iterate in descending peer order
    (no builder makes one; a patched partitioning may) comes back in that
    order — BASP flushes walk these dicts, so the order is behaviour."""
    g = rmat(7, seed=2)
    pg = partition(g, "cvc", 4, cache=False)
    for part in pg.parts:
        for side in ("mirror_exchange", "master_exchange"):
            flipped = dict(sorted(getattr(part, side).items(), reverse=True))
            setattr(part, side, flipped)
    for entry, (save, load) in ENTRY_POINTS.items():
        path = tmp_path / f"{entry}.parts"
        save(pg, path)
        assert_same_partitioning(pg, load(path, g))


def _fingerprint(pg, app_name, engine_cls, ctx):
    result = engine_cls(
        pg, bridges(pg.num_partitions), get_app(app_name),
        comm_config=CommConfig(update_only=True), check_memory=False,
    ).run(ctx)
    s = result.stats
    crc = zlib.crc32(np.ascontiguousarray(result.labels).tobytes())
    return crc, s.rounds, s.num_messages, s.work_items, s.execution_time


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("policy", ["oec", "cvc"])
def test_engines_cannot_tell_loaded_from_built(policy, entry, tmp_path):
    """bfs, cc and pr under BSP and BASP: the loaded partitioning gives the
    fingerprint the harness compares, bit for bit."""
    base = add_random_weights(rmat(8, edge_factor=6, seed=9), seed=1)
    save, load = ENTRY_POINTS[entry]
    for app_name in ("bfs", "cc", "pr"):
        app = get_app(app_name)
        g = make_undirected(base) if app.needs_symmetric else base
        degrees = g.out_degrees()
        ctx = RunContext(
            num_global_vertices=g.num_vertices, source=int(np.argmax(degrees)),
            global_out_degrees=degrees,
        )
        built = partition(g, policy, 4, cache=False)
        path = tmp_path / f"{app_name}.parts"
        save(built, path)
        for engine_cls in (BSPEngine, BASPEngine):
            if engine_cls is BASPEngine and not app.async_capable:
                continue
            # a fresh load per run: engines memoize plans on the object
            want = _fingerprint(
                partition(g, policy, 4, cache=False), app_name, engine_cls, ctx
            )
            got = _fingerprint(load(path, g), app_name, engine_cls, ctx)
            assert got == want, (app_name, engine_cls.__name__)


def test_wrong_graph_and_foreign_file_are_typed_errors(tmp_path):
    g = rmat(6, seed=1)
    path = tmp_path / "g.parts"
    save_partitions(partition(g, "oec", 2, cache=False), path)
    for load in (load_partitions, load_partition_shards):
        with pytest.raises(PartitioningError, match="does not match"):
            load(path, rmat(5, seed=1))
    with pytest.raises(GraphFormatError, match="no g2l section"):
        load_partition_shards(path, g)  # a RAM entry is not a spill
    csr = tmp_path / "g.csr"
    write_csr_store(g, csr)  # the other container: right layout, wrong magic
    for load in (load_partitions, load_partition_shards):
        with pytest.raises(GraphFormatError, match="bad magic"):
            load(csr, g)


def test_csr_store_bytes_did_not_move(tmp_path):
    """``BENCH_ooc`` pins ``store_bytes``; this pins the bytes themselves.
    SHA-1s of what ``write_csr_store`` wrote at ``d7da598``, before the
    container was factored out of ``graph/store.py``."""
    graphs = {
        "weighted": add_random_weights(rmat(9, seed=3), seed=1),
        "unweighted": rmat(7, seed=2),
        "edgeless": CSRGraph(np.zeros(6, dtype=np.int64), np.empty(0, dtype=np.int32)),
    }
    want = {
        "weighted": "ad3d4ccde30870df1e98163a706d684c83a00c5e",
        "unweighted": "9904f9eb677e95433ade50a6ead2252a3d46e4f7",
        "edgeless": "1f514c273b5b90b6a829439aef3178b8f38675ca",
    }
    for name, g in graphs.items():
        path = tmp_path / f"{name}.csr"
        write_csr_store(g, path)
        assert hashlib.sha1(path.read_bytes()).hexdigest() == want[name], name
    # the other writer: reserved sections filled through memmaps
    path = tmp_path / "chunked.csr"
    build_store("rmat", 10, str(path), chunk_edges=1000, seed=5)
    assert (
        hashlib.sha1(path.read_bytes()).hexdigest()
        == "ce4e03573b6ae89b76c336bb6779b5f03f91a167"
    )

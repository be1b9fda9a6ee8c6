"""Distributed triangle counting (DistTC-style) — extension benchmark.

The paper cites DistTC (Hoang et al., HPEC'19), which counts triangles on
CuSP partitions by mirroring enough adjacency that every triangle closes
locally.  Triangle counting is not a vertex program (its operator needs
2-hop neighborhood intersection), so it lives outside the engine as a
partition-level algorithm:

1. orient the symmetric graph by global ID (``u < v``, each edge once),
   turning each triangle ``{a < b < c}`` into the unique wedge
   ``(a,b), (a,c), (b,c)``;
2. enumerate the triangles over that oriented edge list
   (:func:`triangle_blocks`, the one enumeration :mod:`repro.apps.ktruss`
   peels over too); each partition is priced for intersecting
   ``N+(u) ∩ N+(v)`` over its **local oriented edges**, standing in for
   DistTC's mirrored 2-hop neighborhoods;
3. communication is priced as shipping the ghost adjacency each partition
   needs (the out-neighborhoods of its non-master endpoints), plus the
   final count allreduce.

The result is exact (validated against the sequential
:func:`repro.validation.reference_triangle_count`); timing follows the
same cost model as the engines.
"""

from __future__ import annotations

import numpy as np

from repro.constants import GID_BYTES
from repro.engine.costmodel import CostModel
from repro.graph import expand
from repro.graph.order import order_edges
from repro.hw.cluster import Cluster
from repro.loadbalance.base import get_balancer
from repro.metrics.stats import RunStats
from repro.partition.base import PartitionedGraph

__all__ = [
    "count_triangles",
    "oriented_edges",
    "triangle_blocks",
]


def oriented_edges(graph) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``u < v`` edges of a symmetric graph as int64
    ``(src, dst)`` in ``(src, dst)`` order: a duplicated edge is one edge."""
    src = graph.edge_sources().astype(np.int64)
    dst = graph.indices.astype(np.int64)
    keep = src < dst
    src, dst, _ = order_edges(src[keep], dst[keep], graph.num_vertices, dedup=True)
    return src, dst


def _offsets(src: np.ndarray, n: int) -> np.ndarray:
    """Row offsets of ``(src, dst)``-ordered edges over ``n`` vertices."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr


def triangle_blocks(n: int, src: np.ndarray, dst: np.ndarray):
    """Yield every triangle of the :func:`oriented_edges` ``(src, dst)`` once,
    as ``[t, 3]`` blocks of edge indices ``(ab, ac, bc)`` of ``a < b < c``.

    Triangles through ``ab`` close at ``c ∈ N+(a) ∩ N+(b)``.  Each edge scans
    the shorter of its two candidate lists — the edges after ``ab`` in
    ``a``'s row, or ``b``'s row — and looks the closing edge up in the
    sorted edge keys.  Blocks hold at most
    :func:`~repro.graph.expand.block_edge_budget` candidates (an edge with
    more is its own block).
    """
    m = len(src)
    keys = src * n + dst
    indptr = _offsets(src, n)
    edge = np.arange(m, dtype=np.int64)
    after_ab = indptr[src + 1] - edge - 1  # (a, c) with c > b
    row_b = indptr[dst + 1] - indptr[dst]  # (b, c)
    scan_a = after_ab < row_b
    start = np.where(scan_a, edge + 1, indptr[dst])
    count = np.where(scan_a, after_ab, row_b)
    lookup = np.where(scan_a, dst, src) * n  # the row the closing edge is in
    budget = expand.block_edge_budget()
    for lo, hi, c0, c1 in expand.block_bounds(np.cumsum(count), budget):
        cnt = count[lo:hi]
        ab = np.repeat(edge[lo:hi], cnt)
        scanned = np.repeat(start[lo:hi] - (np.cumsum(cnt) - cnt), cnt)
        scanned += np.arange(c1 - c0, dtype=np.int64)
        q = lookup[ab] + dst[scanned]
        closing = np.minimum(np.searchsorted(keys, q), m - 1)
        hit = keys[closing] == q
        ab, scanned, closing = ab[hit], scanned[hit], closing[hit]
        a_side = scan_a[ab]
        yield np.stack([ab, np.where(a_side, scanned, closing),
                        np.where(a_side, closing, scanned)], axis=1)


def count_triangles(
    pg: PartitionedGraph,
    cluster: Cluster,
    scale_factor: float = 1.0,
    balancer: str = "alb",
) -> tuple[int, RunStats]:
    """Count triangles of ``pg``'s (symmetric) graph across its partitions."""
    graph = pg.global_graph
    n = graph.num_vertices
    osrc, odst = oriented_edges(graph)
    total = sum(len(t) for t in triangle_blocks(n, osrc, odst))
    indptr = _offsets(osrc, n)
    cost = CostModel(cluster, get_balancer(balancer), scale_factor)

    stats = RunStats(
        benchmark="tc",
        dataset=graph.name,
        policy=pg.policy,
        num_gpus=pg.num_partitions,
        replication_factor=pg.replication_factor,
    )

    compute_t = np.zeros(pg.num_partitions)
    ghost_bytes = np.zeros(pg.num_partitions)

    for part in pg.parts:
        src_l = part.graph.edge_sources()
        dst_l = part.graph.indices
        u = part.local_to_global[src_l].astype(np.int64)
        v = part.local_to_global[dst_l].astype(np.int64)
        keep = u < v
        u, v = u[keep], v[keep]
        if len(u) == 0:
            continue
        # pricing: the intersection work is one edge-traversal per
        # adjacency element touched
        deg_u = (indptr[u + 1] - indptr[u]).astype(np.float64)
        deg_v = (indptr[v + 1] - indptr[v]).astype(np.float64)
        compute_t[part.pid] = cost.compute_time(part.pid, deg_u + deg_v)
        # ghost adjacency: out-neighborhoods of non-master endpoints
        mirrors = part.local_to_global[~part.is_master]
        ghost = (indptr[mirrors + 1] - indptr[mirrors]).sum()
        ghost_bytes[part.pid] = float(ghost) * GID_BYTES * scale_factor

    # one bulk ghost exchange up front + a final count allreduce
    xfer = np.zeros(pg.num_partitions)
    for p in range(pg.num_partitions):
        legs = cluster.pcie.time(ghost_bytes[p])
        net = cluster.network.time(ghost_bytes[p]) if cluster.num_hosts > 1 else 0.0
        xfer[p] = 2 * legs + net

    stats.per_partition_compute = compute_t
    stats.per_partition_wait = np.zeros_like(compute_t)
    stats.per_partition_device_comm = xfer
    stats.execution_time = float((compute_t + xfer).max()) + cost.allreduce_time()
    stats.comm_volume_bytes = float(ghost_bytes.sum())
    stats.num_messages = pg.num_partitions
    stats.rounds = 1
    stats.work_items = float(len(osrc))
    stats.finalize_breakdown()
    return int(total), stats

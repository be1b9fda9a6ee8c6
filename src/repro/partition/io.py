"""Partition serialization — partition once, load many times.

The paper (Section IV, footnote 2): "graphs can be partitioned once, and
in-memory representations of the partitions can be written to disk.
Applications can then load these partitions directly."  This module is
that workflow: :func:`save_partitions` writes a :class:`PartitionedGraph`
(including the memoized exchange orders) to one file;
:func:`load_partitions` restores it against the original graph without
re-running the partitioner.

The file is a :mod:`repro.graph.container`: one section per field holding
every partition's array back to back, plus the sections that say where
each one starts —

* ``counts``: per partition ``(vertices, edges, mirror peers, master
  peers)``;
* ``indptr`` / ``indices`` / ``weights`` / ``l2g`` / ``is_master``: the
  local CSR graphs and proxy tables (``indptr`` has one entry more per
  partition than ``l2g``);
* ``mirror_plan`` / ``master_plan``: per exchange list ``(peer, length)``,
  in partition order and, within a partition, in the dict's iteration
  order, which is what the loaded dicts iterate in again;
  ``mirror_idx`` / ``master_idx``: the lists themselves;
* ``vertex_owner``.

There is one layout, whichever way it is read: :func:`load_partitions`
copies it into RAM and checks every CRC, :func:`load_partition_shards`
maps it.  Nothing in it, and nothing a load builds, is ``|V|`` long per
partition — a partition answers global-to-local lookups from its
ascending ``l2g`` (:meth:`~repro.partition.base.LocalPartition.to_local`).
A file an older writer gave a ``g2l`` section (every partition's
``|V|``-long inverse map) loads the same way; the section is not read.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import PartitioningError
from repro.graph.container import (
    ContainerFormat,
    ContainerWriter,
    read_header,
    read_sections,
    verify_sections,
)
from repro.graph.csr import CSRGraph
from repro.partition.base import LocalPartition, PartitionedGraph

__all__ = [
    "save_partitions",
    "load_partitions",
    "load_partition_shards",
]

_FORMAT = ContainerFormat(b"repro-partition\n", 1, "partition file")
_LAYOUT_SECTIONS = ("counts", "mirror_plan", "master_plan")


def save_partitions(pg: PartitionedGraph, path: str | os.PathLike) -> None:
    """Stream every partition's structure into one container at ``path``,
    field by field.

    No ``fsync``: partition files are scratch — a torn or flipped one fails
    its size / CRC check on load and is rebuilt.
    """
    parts = pg.parts
    fields = {
        "indptr": lambda p: p.graph.indptr,
        "indices": lambda p: p.graph.indices,
        "l2g": lambda p: p.local_to_global,
        "is_master": lambda p: p.is_master,
    }
    if any(p.graph.has_weights for p in parts):
        fields["weights"] = lambda p: p.graph.weights
    counts = np.array(
        [
            (p.num_local, p.graph.num_edges,
             len(p.mirror_exchange), len(p.master_exchange))
            for p in parts
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    with ContainerWriter(path, _FORMAT) as writer:
        writer.stream("vertex_owner", [pg.vertex_owner])
        writer.stream("counts", [counts])
        for name, get in fields.items():
            writer.stream(name, (get(p) for p in parts))
        for side in ("mirror", "master"):
            lists = [
                (q, idx)
                for p in parts
                for q, idx in getattr(p, side + "_exchange").items()
            ]
            plan = np.array(
                [(q, len(idx)) for q, idx in lists], dtype=np.int64
            ).reshape(-1, 2)
            writer.stream(side + "_plan", [plan])
            writer.stream(side + "_idx", (idx for _, idx in lists))
        writer.commit(
            {
                "policy": pg.policy,
                "grid": [int(x) for x in pg.grid] if pg.grid else None,
                "graph_vertices": pg.global_graph.num_vertices,
                "graph_edges": pg.global_graph.num_edges,
            },
            sync=False,
        )


def _bounds(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths)))


def _read(path: str | os.PathLike, graph: CSRGraph, mode: str) -> PartitionedGraph:
    """Rebuild the :class:`PartitionedGraph` stored at ``path`` from views
    of its sections (``mode`` is :func:`~repro.graph.container.read_sections`'
    ``"ram"`` or ``"mmap"``; a RAM load checks every section's CRC).

    Raises :class:`GraphFormatError` for a file that is not an intact
    partition container and :class:`PartitioningError` for one that was
    computed from another graph.
    """
    header = read_header(path, _FORMAT)
    if (
        header["graph_vertices"] != graph.num_vertices
        or header["graph_edges"] != graph.num_edges
    ):
        raise PartitioningError(
            "partition file does not match the supplied graph"
        )
    # an older writer's spill carried every partition's |V|-long inverse
    # map as a "g2l" section; neither mode reads it
    header["sections"].pop("g2l", None)
    if mode == "mmap":
        # the O(P^2) bytes every slice below is cut by; the payload's
        # CRCs would page the whole file in
        verify_sections(path, header, _LAYOUT_SECTIONS)
    sec = read_sections(path, header, mode, verify=mode == "ram")
    counts = sec["counts"].reshape(-1, 4)
    v, e = _bounds(counts[:, 0]), _bounds(counts[:, 1])
    weights = sec.get("weights")
    exchange = {}
    for side, col in (("mirror", 2), ("master", 3)):
        plan = sec[side + "_plan"].reshape(-1, 2)
        exchange[side] = (
            _bounds(counts[:, col]), plan[:, 0].tolist(),
            _bounds(plan[:, 1]), sec[side + "_idx"],
        )
    parts = []
    for pid in range(len(counts)):
        v0, v1, e0, e1 = v[pid], v[pid + 1], e[pid], e[pid + 1]
        # trusted constructor: the arrays were written from a validated
        # partitioning and the container vouches for the bytes
        part = LocalPartition(
            pid=pid,
            graph=CSRGraph.from_validated_arrays(
                sec["indptr"][v0 + pid : v1 + pid + 1],
                sec["indices"][e0:e1],
                None if weights is None else weights[e0:e1],
                name=f"{graph.name}/p{pid}",
            ),
            local_to_global=sec["l2g"][v0:v1],
            is_master=sec["is_master"][v0:v1],
        )
        for side, (first, peers, at, idx) in exchange.items():
            lists = getattr(part, side + "_exchange")
            for k in range(first[pid], first[pid + 1]):
                lists[peers[k]] = idx[at[k] : at[k + 1]]
        parts.append(part)
    grid = header["grid"]
    return PartitionedGraph(
        policy=header["policy"],
        global_graph=graph,
        vertex_owner=sec["vertex_owner"],
        parts=parts,
        grid=tuple(grid) if grid else None,
    )


def load_partitions(path: str | os.PathLike, graph: CSRGraph) -> PartitionedGraph:
    """Restore a partitioning, CRC-verified and in RAM, against the graph
    it was computed from."""
    return _read(path, graph, "ram")


def load_partition_shards(
    path: str | os.PathLike, graph: CSRGraph
) -> PartitionedGraph:
    """Restore a partitioning with every array a read-only view of one
    ``np.memmap`` of the file: opening is O(P) — a worker touching only its
    cell's partitions pages in only those ranges, and clean pages are
    reclaimable under memory pressure.  Header and size are checked, the
    payload CRCs are not (the sweep would page the whole file in)."""
    return _read(path, graph, "mmap")

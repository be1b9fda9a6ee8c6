"""GPU memory accounting and OOM injection.

The study's second headline lesson is that *static* load balance governs
whether a computation can run at all, because partition size determines GPU
memory footprint (Section V-C, Table IV).  The memory model therefore:

* computes each partition's device footprint **at paper scale** — local edge
  and vertex counts are multiplied by the dataset's ``scale_factor`` before
  being priced in bytes;
* applies a per-framework :class:`MemoryProfile` (D-IrGL's compact CSR vs.
  Gunrock's CSR+CSC+frontier buffers vs. Lux's static pre-allocation —
  Table III);
* raises :class:`~repro.errors.SimulatedOOMError` when a partition exceeds
  the device capacity, which the study drivers record as a *missing data
  point*, just like the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import GIB
from repro.errors import SimulatedOOMError
from repro.hw.cluster import Cluster

__all__ = ["MemoryProfile", "MemoryModel", "MemoryUsage"]


@dataclass(frozen=True)
class MemoryProfile:
    """Bytes-per-element footprint of one framework's device-resident state.

    Attributes
    ----------
    bytes_per_edge:
        CSR indices + weights + any mirrored structures (CSC, frontier
        scratch) per edge.
    bytes_per_vertex:
        label fields, worklist slots, proxy metadata per local vertex.
    fixed_bytes:
        runtime overhead independent of the graph.
    static_allocation_bytes:
        if positive, the framework pre-allocates this much regardless of the
        partition (Lux: "programmers specify the estimated amount of GPU
        memory"; Table III reports the same 5.85 GB for every input).
    """

    name: str
    bytes_per_edge: float
    bytes_per_vertex: float
    fixed_bytes: float = 64 * 2**20
    static_allocation_bytes: float = 0.0
    #: the framework stages the whole graph in zero-copy (pinned) host
    #: memory while loading; if that exceeds host DRAM, the run fails no
    #: matter how many GPUs participate (Lux on the large graphs).
    host_staging: bool = False


#: D-IrGL: 32-bit local ids + 4-byte weight per edge, a handful of label
#: fields and Gluon proxy metadata per vertex (Table III: the smallest).
DIRGL_PROFILE = MemoryProfile("d-irgl", bytes_per_edge=6.0, bytes_per_vertex=24.0)

#: Gunrock: CSR + CSC + per-GPU frontier double buffers (~3.5x D-IrGL).
GUNROCK_PROFILE = MemoryProfile("gunrock", bytes_per_edge=28.0, bytes_per_vertex=48.0)

#: Groute: CSR + async worklist rings (~2x D-IrGL).
GROUTE_PROFILE = MemoryProfile("groute", bytes_per_edge=16.0, bytes_per_vertex=32.0)

#: Lux: static allocation sized by the user (5.85 GB floor, Table III), a
#: somewhat heavier device footprint than D-IrGL, and whole-graph zero-copy
#: staging in pinned host memory — which is why no large graph ran "even
#: with the maximum possible GPU memory and recommended zero-copy memory"
#: (Section V-B): the crawl itself outgrows a host's DRAM.
LUX_PROFILE = MemoryProfile(
    "lux",
    bytes_per_edge=10.0,
    bytes_per_vertex=40.0,
    static_allocation_bytes=5.85 * GIB,
    host_staging=True,
)

PROFILES = {
    p.name: p for p in (DIRGL_PROFILE, GUNROCK_PROFILE, GROUTE_PROFILE, LUX_PROFILE)
}


@dataclass(frozen=True)
class MemoryUsage:
    """Per-GPU paper-scale footprint of one partitioned run."""

    per_gpu_bytes: tuple[float, ...]

    @property
    def max_bytes(self) -> float:
        return max(self.per_gpu_bytes)

    @property
    def mean_bytes(self) -> float:
        return float(np.mean(self.per_gpu_bytes))


class MemoryModel:
    """Prices partitions in device bytes and enforces capacity."""

    def __init__(self, profile: MemoryProfile, scale_factor: float = 1.0):
        self.profile = profile
        self.scale_factor = float(scale_factor)

    def partition_bytes(
        self,
        num_local_vertices: int,
        num_local_edges: int,
        num_label_fields: int = 2,
        weighted: bool = True,
    ) -> float:
        """Paper-scale bytes one partition occupies on its GPU."""
        p = self.profile
        per_edge = p.bytes_per_edge + (4.0 if weighted else 0.0)
        per_vertex = p.bytes_per_vertex + 4.0 * num_label_fields
        dynamic = (
            num_local_edges * self.scale_factor * per_edge
            + num_local_vertices * self.scale_factor * per_vertex
            + p.fixed_bytes
        )
        if p.static_allocation_bytes > 0:
            # Static allocators grab at least the configured footprint up
            # front; users re-size the pool up to device capacity when the
            # estimate is too small, so the effective footprint is the
            # larger of the two (and OOM is decided by device capacity).
            return max(p.static_allocation_bytes, dynamic)
        return dynamic

    def usage(
        self,
        cluster: Cluster,
        local_vertices: list[int] | np.ndarray,
        local_edges: list[int] | np.ndarray,
        num_label_fields: int = 2,
        weighted: bool = True,
        check_memory: bool = True,
    ) -> MemoryUsage:
        """Footprint of every partition; optionally enforce capacity.

        Raises
        ------
        SimulatedOOMError
            if ``check_memory`` and any partition exceeds its device capacity —
            for Lux static allocation, also if the *dynamic* need exceeds
            the static pool (the "even with the maximum possible GPU memory
            ... it did not run" failure of Section V-B).
        """
        if len(local_vertices) != cluster.num_gpus:
            raise ValueError("one vertex count per GPU required")
        if check_memory and self.profile.host_staging:
            p = self.profile
            per_edge = p.bytes_per_edge + (4.0 if weighted else 0.0)
            staged = float(np.sum(local_edges)) * self.scale_factor * per_edge
            dram = min(h.dram_bytes for h in cluster.hosts)
            if staged > dram:
                # gpu_index -1 flags the *host* zero-copy pool overflowing
                raise SimulatedOOMError(-1, staged, dram)
        per_gpu = []
        for g in range(cluster.num_gpus):
            need = self.partition_bytes(
                int(local_vertices[g]), int(local_edges[g]),
                num_label_fields, weighted,
            )
            capacity = cluster.gpus[g].mem_capacity_bytes
            if check_memory and need > capacity:
                raise SimulatedOOMError(g, need, capacity)
            per_gpu.append(need)
        return MemoryUsage(per_gpu_bytes=tuple(per_gpu))

"""Converting work units and messages into simulated seconds.

All times are at **paper scale**: work units and message bytes are
multiplied by the dataset's ``scale_factor`` before pricing, so a stand-in
one thousandth the size of clueweb12 produces clueweb12-sized times, GB
labels, and OOM behavior.  Relative comparisons (the study's subject) are
unaffected; absolute magnitudes land in the paper's ballpark.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.comm.buffers import Message
from repro.comm.router import Router
from repro.errors import ConfigurationError
from repro.hw.cluster import Cluster
from repro.loadbalance.base import LoadBalancer

__all__ = ["CostBreakdown", "CostModel", "serialize_seconds_by_device"]

#: Device bytes touched per edge traversal: an index load, a label gather,
#: a label scatter — dominated by wasted cache-line transfers on random
#: access.  Calibrated so a P100 sustains ~2 G edge-traversals/s, in line
#: with published graph-framework throughput on that part.
BYTES_PER_EDGE_UNIT = 64.0

#: Device bytes per frontier-vertex touch (worklist pop, label read).
BYTES_PER_VERTEX_UNIT = 16.0

#: Host-side cost of the global termination allreduce, per participating
#: host hop (a small latency tree).
ALLREDUCE_HOP_S = 20e-6


@dataclass(frozen=True)
class CostBreakdown:
    """Per-term cost legs of a priced round, in simulated seconds.

    The stable schema shared by the cost model, the partition-stats
    estimators, and the ``repro.tune`` advisor: ``compute`` is the
    straggler GPU's kernel time, ``sync`` the network span of the sync
    step, ``serialize`` the worst per-device extraction + PCIe staging
    cost, and ``overhead`` fixed per-round charges (termination
    allreduce).  Consumers must not invent ad-hoc dict keys — extend
    this dataclass instead.
    """

    compute: float = 0.0
    sync: float = 0.0
    serialize: float = 0.0
    overhead: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.sync + self.serialize + self.overhead

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            compute=self.compute + other.compute,
            sync=self.sync + other.sync,
            serialize=self.serialize + other.serialize,
            overhead=self.overhead + other.overhead,
        )

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(
            compute=self.compute * factor,
            sync=self.sync * factor,
            serialize=self.serialize * factor,
            overhead=self.overhead * factor,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CostBreakdown":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown CostBreakdown keys: {sorted(unknown)} (schema: {sorted(known)})"
            )
        return cls(**{k: float(v) for k, v in data.items()})


def serialize_seconds_by_device(priced, num_gpus: int) -> np.ndarray:
    """Per-device serialization seconds for a priced batch.

    Device ``d`` pays extraction + host staging (d2h) for every message
    it sends and the h2d leg for every message it receives; the batch's
    serialize cost is the straggler device's sum.  ``priced`` is a
    ``BatchLegTimes`` from :meth:`Router.price_batch`.
    """
    out = np.zeros(num_gpus, dtype=np.float64)
    if len(priced.src) == 0:
        return out
    np.add.at(out, priced.src, priced.extraction + priced.d2h)
    np.add.at(out, priced.dst, priced.h2d)
    return out


@dataclass
class CostModel:
    """Prices compute rounds and message legs for one run."""

    cluster: Cluster
    balancer: LoadBalancer
    scale_factor: float = 1.0

    def __post_init__(self):
        self.router = Router(self.cluster, volume_scale=self.scale_factor)

    # ------------------------------------------------------------------ #
    # compute
    # ------------------------------------------------------------------ #
    def compute_time(
        self, pid: int, frontier_degrees: np.ndarray, extra_vertices: int = 0
    ) -> float:
        """Seconds partition ``pid``'s GPU spends on one compute phase.

        ``extra_vertices`` charges master-compute style per-vertex work
        that has no edge component.
        """
        gpu = self.cluster.gpus[pid]
        cost = self.balancer.cost(frontier_degrees, gpu.concurrent_blocks)
        work_bytes = (
            cost.effective_work * BYTES_PER_EDGE_UNIT
            + (len(frontier_degrees) + extra_vertices) * BYTES_PER_VERTEX_UNIT
        ) * self.scale_factor
        if cost.total_work == 0 and extra_vertices == 0 and len(frontier_degrees) == 0:
            return 0.0
        return gpu.kernel_launch_overhead_s + gpu.seconds_for_bytes(work_bytes)

    def master_time(self, pid: int, num_masters_touched: int) -> float:
        """Master-phase kernel: per-vertex work only."""
        if num_masters_touched == 0:
            return 0.0
        gpu = self.cluster.gpus[pid]
        work_bytes = num_masters_touched * BYTES_PER_VERTEX_UNIT * self.scale_factor
        return gpu.kernel_launch_overhead_s + gpu.seconds_for_bytes(work_bytes)

    # ------------------------------------------------------------------ #
    # communication
    # ------------------------------------------------------------------ #
    def allreduce_time(self) -> float:
        """Per-round global termination check across hosts."""
        h = self.cluster.num_hosts
        if h <= 1:
            return 1e-6
        return 2.0 * ALLREDUCE_HOP_S * float(np.ceil(np.log2(h)))

    # ------------------------------------------------------------------ #
    # composed round pricing
    # ------------------------------------------------------------------ #
    def price_round(
        self,
        frontier_degrees: np.ndarray,
        messages: list[Message],
        pid: int = 0,
        extra_vertices: int = 0,
    ) -> CostBreakdown:
        """Price one engine round into the stable :class:`CostBreakdown`.

        Composes the existing primitives — ``compute_time`` for the
        straggler partition's kernel, the router's ``price_batch`` +
        ``route_step`` for the (flat) sync step, per-device serialization
        via :func:`serialize_seconds_by_device`, and ``allreduce_time``
        for the fixed round overhead.  On a cluster without a contention
        model ``route_step`` returns the flat schedule in one vectorized
        pass, so the advisor's pricing runs no per-message loop.  This is
        the single entry point the advisor and tests consume; it adds no
        pricing formulas of its own.
        """
        compute = self.compute_time(pid, frontier_degrees, extra_vertices)
        sync = 0.0
        serialize = 0.0
        if messages:
            priced = self.router.price_batch(messages)
            net = self.router.route_step(priced)
            if len(net.eff_inter):
                sync = float(np.max(net.eff_inter))
            per_device = serialize_seconds_by_device(priced, len(self.cluster.gpus))
            serialize = float(per_device.max())
        return CostBreakdown(
            compute=compute,
            sync=sync,
            serialize=serialize,
            overhead=self.allreduce_time(),
        )

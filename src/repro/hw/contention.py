"""Shared-resource contention: capacity-limited links and host cores.

The flat router (:mod:`repro.comm.router`) prices every message as if each
had a private NIC and private PCIe lane.  Real hosts route for *all* of
their GPUs over shared links: on Bridges two P100s share one Omni-Path
port, and on Tuxedo six devices hang off one PCIe tree behind a single
host.  This module models those shared resources as capacity-limited
servers with FIFO queues; the per-message *service times* are exactly
today's per-leg formulas (see :meth:`repro.comm.router.Router.legs`), so
the contended mode changes *when* a message occupies a link, never what
one message costs in isolation.

Resources
---------
``("nic", h)``
    host ``h``'s network port; serves the inter-host leg of every
    cross-host message whose sender lives on ``h``.  Capacity
    :attr:`ContentionConfig.nic_servers` (default 1 — one Omni-Path port
    per Bridges host).
``("staging", h)``
    host ``h``'s pinned-memory staging path (the shared PCIe tree between
    same-host devices); serves the intra-host leg of host-routed same-host
    messages.  Capacity :attr:`ContentionConfig.staging_servers`
    (default 1 — Tuxedo's six GPUs share one tree).  GPUDirect peer-to-peer
    transfers bypass host staging and do not queue here.
``("pcie_up", g)``
    device ``g``'s D2H lane direction.  Always capacity 1: this is the
    per-device serialization the flat model already implies by summing
    send-side legs per device, reproduced here as an explicit FIFO so the
    up-leg completion times feed the network queues.  The gnnflow
    feature-gather leg (:meth:`repro.comm.router.Router.
    price_feature_loads`) claims this lane jointly with the host's
    staging path, so bulk feature loads and sync messages contend for
    the same per-device link budget.
``("cores", h)``
    host ``h``'s serialization cores, occupied for a message's whole
    pack+D2H service jointly with the sender's up lane.  Capacity
    :attr:`ContentionConfig.serialization_cores` (default: the host's
    ``num_cores``, which never binds on the study's platforms — lower it
    in ablations to model a host CPU-bound router).

The uncontended path is untouched: a cluster without a
:class:`ContentionConfig` (or with ``enabled=False``) never constructs a
:class:`ContentionModel`, and the differential suites pin the default
pricing bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["ContentionConfig", "ContentionModel", "ResourceStats"]


@dataclass(frozen=True)
class ContentionConfig:
    """Opt-in shared-resource capacities for a cluster.

    Frozen (hashable) so it can ride on the frozen
    :class:`~repro.hw.cluster.Cluster`.  ``enabled=False`` keeps the
    config attached but prices exactly like no config at all and calls
    nothing here while a run executes (the ``off-path`` rows count it).
    """

    enabled: bool = True
    #: network ports per host (inter-host legs queue here)
    nic_servers: int = 1
    #: pinned-staging paths per host (host-routed same-host legs)
    staging_servers: int = 1
    #: host cores packing/unpacking staging buffers; ``None`` means the
    #: host's own ``num_cores`` (ample on every study platform)
    serialization_cores: int | None = None

    def __post_init__(self):
        if self.nic_servers < 1 or self.staging_servers < 1:
            raise ConfigurationError("resource capacities must be >= 1")
        if self.serialization_cores is not None and self.serialization_cores < 1:
            raise ConfigurationError("serialization_cores must be >= 1")


@dataclass
class ResourceStats:
    """Totals for one resource over a run (tracer counters)."""

    busy_s: float = 0.0  # sum of service times served
    queue_s: float = 0.0  # sum of (start - ready) waits
    messages: int = 0


@dataclass
class ContentionModel:
    """FIFO queues over one cluster's shared resources.

    ``acquire`` is a greedy earliest-free-server assignment: callers
    present work in a deterministic order (the engines sort by ready time
    then batch index), each request starts at
    ``max(ready, earliest server free time)`` and occupies the server for
    its full service time.  Per-resource busy/queue totals accumulate in
    :attr:`stats` for the tracer and the benches.
    """

    cluster: object  # duck-typed Cluster (avoids an import cycle)
    config: ContentionConfig
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self._free: dict[tuple, list[float]] = {}

    # ------------------------------------------------------------------ #
    def capacity(self, key: tuple) -> int:
        kind = key[0]
        if kind == "nic":
            return self.config.nic_servers
        if kind == "staging":
            return self.config.staging_servers
        if kind == "cores":
            if self.config.serialization_cores is not None:
                return self.config.serialization_cores
            return self.cluster.hosts[key[1]].num_cores
        return 1  # per-direction PCIe lanes

    def reset_clocks(self) -> None:
        """Forget server occupancy (stats persist).

        BSP calls this per sync step — each step starts its own relative
        timeline.  BASP never resets: its queues live on the absolute
        event clock.
        """
        self._free.clear()

    def _heap(self, key: tuple) -> list[float]:
        h = self._free.get(key)
        if h is None:
            h = [0.0] * self.capacity(key)
            self._free[key] = h
        return h

    def _stat(self, key: tuple) -> ResourceStats:
        st = self.stats.get(key)
        if st is None:
            st = ResourceStats()
            self.stats[key] = st
        return st

    # ------------------------------------------------------------------ #
    def acquire(self, key: tuple, ready: float, service: float) -> float:
        """Claim the earliest-free server of ``key`` at or after ``ready``.

        Returns the start time; the server is busy ``[start, start +
        service)``.  FIFO holds for any caller that presents requests in
        nondecreasing ready order.
        """
        heap = self._heap(key)
        free = heapq.heappop(heap)
        start = max(free, ready)
        heapq.heappush(heap, start + service)
        st = self._stat(key)
        st.busy_s += service
        st.queue_s += start - ready
        st.messages += 1
        return start

    def acquire_joint(self, keys: list[tuple], ready: float, service: float) -> float:
        """Claim one server of *each* resource for the same interval.

        Used for the pack+D2H up leg, which needs the device's up lane and
        a host serialization core simultaneously.  The queue wait is
        charged to the first key (the lane); every key records the busy
        time.
        """
        heaps = [self._heap(k) for k in keys]
        start = ready
        for h in heaps:
            if h[0] > start:
                start = h[0]
        for k, h in zip(keys, heaps):
            heapq.heappop(h)
            heapq.heappush(h, start + service)
            st = self._stat(k)
            st.busy_s += service
        self._stat(keys[0]).queue_s += start - ready
        for k in keys:
            self._stat(k).messages += 1
        return start

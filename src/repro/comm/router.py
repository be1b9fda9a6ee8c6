"""Host-routed message pricing (Section III-D).

Every device-to-device transfer in all four frameworks is routed through the
hosts: device -> host (PCIe), host -> host (network; skipped when the GPUs
share a host, where Lux-style pinned staging applies), host -> device
(PCIe).  The router prices each leg with the cluster's interconnect specs;
the engines aggregate leg times into the paper's "Device Comm." (the PCIe
legs plus extraction overhead, which are serialized on each device's link)
and "Min Wait" (time blocked on the network legs of straggling partners).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.comm.buffers import Message, batch_arrays
from repro.comm.hier import HostAggregate, group_cross_host
from repro.errors import ConfigurationError
from repro.hw.cluster import Cluster
from repro.hw.contention import ContentionModel

__all__ = ["LegTimes", "BatchLegTimes", "StepNetwork", "Router"]

#: Device-side extraction rate for the UO prefix scan: proxies scanned per
#: second.  Scanning is bandwidth-bound over the proxy array; the constant
#: is tuned so that latency-bound small messages make UO extraction visible
#: (the paper's uk07/sssp case) without dominating large ones.
EXTRACTION_SCAN_RATE = 2.5e9


@dataclass(frozen=True)
class LegTimes:
    """Per-leg seconds for one message."""

    d2h: float  # device -> host PCIe
    inter: float  # host -> host network (0 for same-host)
    h2d: float  # host -> device PCIe

    @property
    def total(self) -> float:
        return self.d2h + self.inter + self.h2d


class BatchLegTimes(NamedTuple):
    """Vectorized :class:`LegTimes` for a whole message batch.

    Element ``i`` of every array prices ``messages[i]``; the values are
    bit-identical to calling :meth:`Router.legs` /
    :meth:`Router.extraction_time` / :meth:`Router.scaled_bytes` on each
    message, just computed in one NumPy pass.  The engines aggregate these
    arrays instead of looping per message.
    """

    src: np.ndarray  # sender pid per message
    dst: np.ndarray  # receiver pid per message
    d2h: np.ndarray  # device -> host PCIe seconds
    inter: np.ndarray  # host -> host network seconds
    h2d: np.ndarray  # host -> device PCIe seconds
    extraction: np.ndarray  # UO extraction-scan seconds
    scaled_bytes: np.ndarray  # paper-scale wire bytes


class StepNetwork(NamedTuple):
    """Network-leg schedule for one priced batch (see
    ``Router.schedule_network``).

    With contention and hierarchy both off this is the flat schedule:
    ``eff_inter`` is ``BatchLegTimes.inter`` itself.  Otherwise
    ``eff_inter[i]`` is the span from message ``i`` being ready for the
    network to its (possibly aggregated, possibly queued) network service
    completing.
    """

    eff_inter: np.ndarray  # per-message effective network-leg seconds
    done: np.ndarray  # per-message completion time, on the caller's clock
    wire_messages: int  # messages on the wire (after aggregation)
    wire_bytes: float  # scaled bytes on the wire (after aggregation)
    inter_host_messages: int  # cross-host wire messages (after aggregation)
    messages_saved: int  # cross-host messages folded away by aggregation
    aggregates: int  # HostAggregates formed (0 unless hierarchical)
    saved_bytes: float  # scaled envelope bytes aggregation removed


class Router:
    """Prices messages over a :class:`Cluster` topology."""

    def __init__(self, cluster: Cluster, volume_scale: float = 1.0):
        """``volume_scale`` inflates wire bytes to paper scale so transfer
        times (and reported GB) correspond to the real datasets.

        The shared-resource model is built from the cluster's own
        ``contention`` config (a disabled config normalizes to ``None``,
        like a disabled tracer, so the flat path pays nothing).
        """
        self.cluster = cluster
        self.volume_scale = float(volume_scale)
        #: per-GPU host index and per-host serialization rate, as arrays
        #: (every batch pricing and network schedule gathers from them)
        self.host_of = np.asarray(cluster.host_of, dtype=np.int64)
        self.host_rates = np.array([h.serialization_rate for h in cluster.hosts])
        cfg = cluster.contention
        self.contention = (
            ContentionModel(cluster, cfg) if cfg is not None and cfg.enabled
            else None
        )

    def scaled_bytes(self, msg: Message) -> float:
        return msg.wire_bytes() * self.volume_scale

    def extraction_time(self, msg: Message) -> float:
        """UO's device-side prefix-scan overhead for building this message."""
        return msg.scanned_elements * self.volume_scale / EXTRACTION_SCAN_RATE

    def legs(self, msg: Message) -> LegTimes:
        """Price one message's three legs.

        Cross-host messages additionally pay host-side serialization on
        both the sending and receiving host (the CPUs pack/unpack staging
        buffers when routing for their devices) — the per-message and
        per-byte costs that make communication-partner count matter at
        scale (the CVC effect, Section V-C).
        """
        nbytes = self.scaled_bytes(msg)
        elements = msg.num_elements * self.volume_scale
        src, dst = msg.header.src, msg.header.dst
        c = self.cluster
        if src == dst:
            # local loop-back (possible for degenerate plans) — free.
            return LegTimes(0.0, 0.0, 0.0)
        if c.gpudirect:
            # Device-direct transfers (GPUDirect P2P / RDMA): no host
            # staging legs and no host serialization — the improvement the
            # paper recommends adopting (Section VII).  A small device-side
            # send/recv posting cost remains.
            post = 8e-6
            if c.same_host(src, dst):
                return LegTimes(post, c.intra_host.time(nbytes), post)
            return LegTimes(post, c.network.time(nbytes), post)
        # Each side's host walks every element once (pack on the sender,
        # unpack + address resolution on the receiver).  This per-element
        # cost is charged to the host-device legs — at each endpoint's own
        # host rate: the *sender's* host packs, the *receiver's* unpacks.
        d2h = c.pcie.time(nbytes) + (
            elements / c.hosts[c.host_of[src]].serialization_rate
        )
        h2d = c.pcie.time(nbytes) + (
            elements / c.hosts[c.host_of[dst]].serialization_rate
        )
        if c.same_host(src, dst):
            # staged through pinned host memory; no network leg.
            return LegTimes(
                d2h, c.intra_host.time(nbytes) - c.intra_host.latency_s, h2d
            )
        return LegTimes(d2h, c.network.time(nbytes), h2d)

    def price_batch(self, batch) -> BatchLegTimes:
        """Price a whole message batch in one vectorized pass.

        ``batch`` carries the per-message columns of
        :class:`~repro.comm.buffers.MessageBatch` — a ``SendBatch`` from
        extraction as it is; a ``Message`` list (the estimators, tests)
        goes through :func:`~repro.comm.buffers.batch_arrays` first.

        These are the flat (uncontended) leg times; queueing on shared
        resources is :meth:`route_step`'s, which takes them as service
        times.

        Replicates :meth:`legs` elementwise (same expressions, same
        operation order, so the floats match the scalar path exactly) and
        folds in :meth:`extraction_time` and :meth:`scaled_bytes`, which
        the engines always need alongside the legs.

        An empty batch returns explicitly empty arrays (no NumPy
        empty-shape edge cases downstream of an empty sync step).
        """
        if isinstance(batch, list):
            batch = batch_arrays(batch)
        if not len(batch.src):
            e = np.empty(0)
            return BatchLegTimes(
                src=np.empty(0, dtype=np.int64),
                dst=np.empty(0, dtype=np.int64),
                d2h=e, inter=e.copy(), h2d=e.copy(),
                extraction=e.copy(), scaled_bytes=e.copy(),
            )
        nbytes = batch.wire_bytes * self.volume_scale
        elements = batch.num_elements * self.volume_scale
        extraction = (
            batch.scanned_elements * self.volume_scale / EXTRACTION_SCAN_RATE
        )
        c = self.cluster
        host_of = self.host_of
        same = host_of[batch.src] == host_of[batch.dst]
        if c.gpudirect:
            post = 8e-6
            d2h = np.full(len(batch.src), post)
            h2d = d2h.copy()
            inter = np.where(
                same,
                c.intra_host.latency_s + nbytes / c.intra_host.bandwidth_bytes,
                c.network.latency_s + nbytes / c.network.bandwidth_bytes,
            )
        else:
            # sender's host packs at its rate; receiver's host unpacks at
            # its own — same expressions as the scalar ``legs`` path, so
            # the floats match exactly (and collapse to the old shared
            # constant on homogeneous-host clusters)
            rates = self.host_rates
            pcie = c.pcie.latency_s + nbytes / c.pcie.bandwidth_bytes
            d2h = pcie + elements / rates[host_of[batch.src]]
            h2d = pcie + elements / rates[host_of[batch.dst]]
            inter = np.where(
                same,
                (c.intra_host.latency_s + nbytes / c.intra_host.bandwidth_bytes)
                - c.intra_host.latency_s,
                c.network.latency_s + nbytes / c.network.bandwidth_bytes,
            )
        loop = batch.src == batch.dst  # degenerate local loop-back: free
        if loop.any():
            d2h = np.where(loop, 0.0, d2h)
            inter = np.where(loop, 0.0, inter)
            h2d = np.where(loop, 0.0, h2d)
        return BatchLegTimes(
            src=batch.src,
            dst=batch.dst,
            d2h=d2h,
            inter=inter,
            h2d=h2d,
            extraction=extraction,
            scaled_bytes=nbytes,
        )

    def route_step(
        self, pr: BatchLegTimes, hierarchical: bool = False, keys=None
    ) -> StepNetwork:
        """Schedule one priced batch's network legs on shared resources.

        The step gets its own relative timeline.  Each message first
        clears its device's up leg (extraction + D2H, FIFO per device —
        jointly with a host serialization core when contended), then its
        network leg runs as :meth:`schedule_network` describes.

        ``eff_inter[i]`` replaces ``pr.inter[i]`` in the engines' round
        assembly; everything the flat model charges per device (send/recv
        sums) is unchanged.  With no contention model and no two-level
        sync nothing queues behind the up legs, so the flat schedule
        returns before they are timed: its ``done`` is ``eff_inter``, each
        leg measured from its own message being ready.
        """
        n = len(pr.src)
        model = self.contention
        if (model is None and not hierarchical) or n == 0:
            return self._flat(pr, pr.inter)
        c = self.cluster
        up_service = pr.extraction + pr.d2h

        # ---- up stage: when each message clears its device's D2H lane --- #
        up_done = np.empty(n)
        if model is None:
            for g in np.unique(pr.src):
                idx = np.flatnonzero(pr.src == g)
                up_done[idx] = np.cumsum(up_service[idx])
        else:
            model.reset_clocks()
            hsrc = self.host_of[pr.src]
            for i in range(n):
                svc = float(up_service[i])
                lane = ("pcie_up", int(pr.src[i]))
                if c.gpudirect:
                    # device-direct posting: no host core involved
                    start = model.acquire(lane, 0.0, svc)
                else:
                    start = model.acquire_joint(
                        [lane, ("cores", int(hsrc[i]))], 0.0, svc
                    )
                up_done[i] = start + svc
        return self.schedule_network(pr, up_done, hierarchical, keys)

    def _flat(self, pr: BatchLegTimes, done: np.ndarray) -> StepNetwork:
        """Nothing aggregates or queues: every network leg takes exactly
        its priced time, and every message is its own wire message."""
        host_of = self.host_of
        inter = int(np.count_nonzero(host_of[pr.src] != host_of[pr.dst]))
        return StepNetwork(
            pr.inter, done, len(pr.src), float(pr.scaled_bytes.sum()),
            inter, 0, 0, 0.0,
        )

    def schedule_network(
        self, pr: BatchLegTimes, ready: np.ndarray, hierarchical: bool = False,
        keys=None,
    ) -> StepNetwork:
        """The one network-leg scheduler, under both engines.

        ``ready[i]`` is when message ``i`` has cleared its device's up leg,
        on the caller's clock: a BSP step's relative timeline (through
        :meth:`route_step`, which resets the resource clocks first) or a
        BASP flush's absolute departures (resource queues persist across
        the run, so a NIC busy with an earlier flush delays this one).

        The network leg runs per message, or per :class:`HostAggregate`
        when ``hierarchical`` (one wire message per (src host, dst host[,
        key]) — ``keys`` adds the per-message (field, phase) of a flush
        that mixes them; the aggregate departs when its last member is
        ready).  With contention, legs queue FIFO on the sender host's NIC
        (cross-host) or staging path (host-routed same-host); without,
        they start as soon as ready.  With neither, that is the flat
        schedule, returned in one vectorized pass (``done = ready +
        pr.inter``) without building an entity per message.  A loop-back
        is done the moment it is ready.
        """
        model = self.contention
        if model is None and not hierarchical:
            return self._flat(pr, ready + pr.inter)
        n = len(pr.src)
        c = self.cluster
        hsrc = self.host_of[pr.src]
        hdst = self.host_of[pr.dst]
        loop = pr.src == pr.dst
        cross = (hsrc != hdst) & ~loop

        # (resource key | None, ready, service, member indices); order by
        # (ready, first member) for deterministic FIFO arrival at queues
        entities: list[tuple] = []
        aggregates: list[HostAggregate] = []
        agg_members = 0
        if hierarchical:
            aggregates = group_cross_host(
                hsrc, hdst, cross, pr.scaled_bytes, self.volume_scale, keys
            )
            for agg in aggregates:
                agg_members += len(agg.members)
                service = c.network.time(agg.wire_bytes)
                key = ("nic", agg.src_host) if model is not None else None
                entities.append(
                    (key, float(ready[agg.members].max()), service, agg.members)
                )
        for i in np.flatnonzero(~loop):
            i = int(i)
            if hierarchical and cross[i]:
                continue  # carried by its aggregate
            if cross[i]:
                key = ("nic", int(hsrc[i])) if model is not None else None
            elif model is not None and not c.gpudirect:
                key = ("staging", int(hsrc[i]))
            else:
                key = None  # GPUDirect P2P crossbars don't queue host-side
            entities.append(
                (key, float(ready[i]), float(pr.inter[i]),
                 np.array([i], dtype=np.int64))
            )
        entities.sort(key=lambda e: (e[1], int(e[3][0])))

        eff = np.zeros(n)
        done = np.array(ready, dtype=np.float64)
        for key, t, service, members in entities:
            start = model.acquire(key, t, service) if key is not None else t
            done[members] = finish = start + service
            if key is None and len(members) == 1:
                # unqueued singleton: starts the moment it is ready, so the
                # effective span is exactly the flat leg time (and bitwise
                # so — no (a + b) - a round trip)
                eff[members] = service
            else:
                eff[members] = finish - ready[members]

        n_aggs = len(aggregates)
        saved = agg_members - n_aggs
        saved_bytes = float(sum(a.saved_bytes for a in aggregates))
        return StepNetwork(
            eff_inter=eff,
            done=done,
            wire_messages=n - saved,
            wire_bytes=float(pr.scaled_bytes.sum()) - saved_bytes,
            inter_host_messages=(
                n_aggs if hierarchical else int(np.count_nonzero(cross))
            ),
            messages_saved=saved,
            aggregates=n_aggs,
            saved_bytes=saved_bytes,
        )

    def price_feature_loads(self, nbytes_by_gpu) -> np.ndarray:
        """Price per-device host->device feature loads, one bulk transfer
        per GPU per round (the gnnflow workload's traffic leg).

        Feature tensors live in host DRAM, so every load crosses the PCIe
        link regardless of GPUDirect: ``time[g] = pcie.time(bytes[g] *
        volume_scale)``.  With a contention model the transfer occupies
        the device's ``("pcie_up", g)`` lane jointly with the host's
        ``("staging", h)`` pinned path — same resources, same FIFO
        semantics as the sync legs, scheduled in ascending device order on
        a fresh relative timeline (mirroring one sync step).  Devices with
        zero bytes cost nothing.
        """
        nbytes = np.asarray(nbytes_by_gpu, dtype=np.float64) * self.volume_scale
        if (nbytes < 0).any():
            raise ConfigurationError("feature byte counts must be >= 0")
        c = self.cluster
        times = np.zeros(len(nbytes))
        model = self.contention
        if model is not None:
            model.reset_clocks()
        host_of = c.host_of
        for g in range(len(nbytes)):
            if nbytes[g] <= 0.0:
                continue
            service = c.pcie.time(float(nbytes[g]))
            if model is None:
                times[g] = service
            else:
                start = model.acquire_joint(
                    [("pcie_up", g), ("staging", int(host_of[g]))],
                    0.0, service,
                )
                times[g] = start + service
        return times

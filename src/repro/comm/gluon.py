"""The Gluon-style proxy-synchronization substrate (Dathathri et al., PLDI'18).

Synchronization of a label field is a **reduce** (mirror proxies send their
locally-written values to the master, which combines them with an
app-declared operator) followed by a **broadcast** (the master sends the
canonical value back to the mirrors that will read it).  Three optimizations
from the paper are modeled faithfully, each independently switchable for
ablation:

* **structural-invariant filtering** (Section III-D1): apps declare where a
  field is read and written (source or destination of an edge); proxies that
  cannot read (write) the field are excluded from broadcast (reduce) *at
  plan-construction time*.  Under OEC mirrors have no out-edges, so a
  source-read field needs no broadcast; under IEC mirrors have no in-edges,
  so a destination-write field needs no reduce; under CVC the surviving
  partners collapse to the grid row/column.
* **update-driven communication** (UO, Section III-D2): per-proxy dirty bits
  restrict each message to values actually written since the last sync, at
  the cost of a device-side extraction scan (priced by the cost model).
  The alternative (AS) ships every shared value every round, as Lux does.
* **address memoization** (footnote 1): both sides agree on a fixed
  exchange order at partition time, so messages carry no global IDs; with
  memoization off, every element ships an 8-byte ID (Lux's wire format).

The **batch** is the unit of the sync path.  Per (field contract, phase)
every pair plan lives in one :class:`_ExchangeTable` — the aligned
``flat_send`` / ``flat_recv`` index arrays, one *segment* per (sender,
receiver) pair, senders in order — and the per-pair plans are views into
it.  An extraction, for whatever set of senders it is asked for (all of
them in a BSP sync step, one in a BASP flush), gathers the dirty bits over
the senders' table slices and returns one
:class:`~repro.comm.buffers.SendBatch`: per-message columns the router
prices directly, and per-element receiver targets and values.  A delivery
is one receiver's share of a batch, applied with ``ufunc.at`` over the
sender-ordered concatenation (which replays the per-message float sequence
exactly).  No ``Message`` object is built on the way; :meth:`GluonComm.messages`
materialises a batch for the check oracle and for tests.  Tables depend
only on the partitioned graph, the field's read/write locations, and the
filtering flag, so they are memoized on the :class:`PartitionedGraph` and
shared by every engine/run over the same partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.comm.bitset import Bitset
from repro.comm.buffers import HEADER_BYTES, Message, MessageHeader, SendBatch
from repro.constants import GID_BYTES
from repro.errors import CommunicationError, ConfigurationError
from repro.idset import unique_ids
from repro.partition.base import PartitionedGraph

__all__ = ["FieldSpec", "CommConfig", "GluonComm"]

_EMPTY = np.empty(0, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)

_REDUCERS: dict[str, Callable] = {
    "min": np.minimum,
    "max": np.maximum,
    "add": np.add,
}


@dataclass(frozen=True)
class FieldSpec:
    """Synchronization contract for one label field.

    Attributes
    ----------
    name:
        field identifier.
    dtype:
        NumPy dtype of the label (determines wire width).
    reduce_op:
        ``min`` / ``max`` / ``add`` — how concurrent writes combine.
    read_at:
        where the operator *reads* the field relative to an edge:
        ``src`` (push reads the source's label; pull reads in-neighbors,
        which are sources of the reversed... i.e. still the proxies with
        local out-edges), ``dst``, ``any``, or ``none`` (never read
        remotely -> broadcast eliminated).
    write_at:
        where the operator *writes*: ``src``, ``dst``, ``any``, or
        ``master`` (only the master computes it -> reduce eliminated).
    identity:
        the neutral element; accumulator fields (``add``) are reset to it
        after their value is extracted for reduction.
    reset_after_reduce:
        accumulator semantics (pagerank residuals, kcore decrements).
    """

    name: str
    dtype: object
    reduce_op: str = "min"
    read_at: str = "src"
    write_at: str = "dst"
    identity: float = 0
    reset_after_reduce: bool = False

    def __post_init__(self):
        if self.reduce_op not in _REDUCERS:
            raise ConfigurationError(f"unknown reduce op {self.reduce_op!r}")
        if self.read_at not in ("src", "dst", "any", "none"):
            raise ConfigurationError(f"bad read_at {self.read_at!r}")
        if self.write_at not in ("src", "dst", "any", "master"):
            raise ConfigurationError(f"bad write_at {self.write_at!r}")


@dataclass(frozen=True)
class CommConfig:
    """Which communication optimizations are active.

    ``update_only=True, memoize_addresses=True`` is D-IrGL's default (UO);
    ``update_only=False`` is the AS variant; Lux is
    ``CommConfig(update_only=False, memoize_addresses=False)``.
    ``invariant_filtering`` exists for ablation (always on in D-IrGL).
    ``hierarchical`` opts into two-level sync (:mod:`repro.comm.hier`):
    same-host mirror updates ship as one inter-host message per (host,
    field, step) and are scattered on the receiving host; labels stay
    bit-identical to flat sync, only network-leg pricing and wire message
    counts change.
    """

    update_only: bool = True
    memoize_addresses: bool = True
    invariant_filtering: bool = True
    hierarchical: bool = False


@dataclass
class _PairPlan:
    """Aligned send/recv index lists for one (sender, receiver) pair —
    views into the pair's segment of an :class:`_ExchangeTable`."""

    send_idx: np.ndarray  # local ids on the sender
    recv_idx: np.ndarray  # local ids on the receiver, aligned element-wise


class _ExchangeTable:
    """Every pair plan of one (field contract, phase), flattened.

    Segment ``s`` is the plan ``seg_src[s] -> seg_dst[s]`` and covers
    ``seg_off[s]:seg_off[s + 1]`` of ``flat_send`` (sender-local ids) and
    ``flat_recv`` (receiver-local ids, aligned element-wise); it has
    ``seg_len[s]`` elements and ships ``seg_bitset_bytes[s]`` of packed
    bitset under UO.  Those four are the rows of the int64 ``seg_cols``,
    so an extraction gathers all of them at once.  Segments are grouped by
    sender in pid order and keep plan order within one — the order
    messages leave in — so sender ``p`` owns segments
    ``sender_seg[p]:sender_seg[p + 1]`` and the flat range
    ``sender_off[p]:sender_off[p + 1]`` (plain ints: sliced once per
    extraction).  ``planned[src, dst]`` says whether a pair has a segment.
    Segments are never empty (empty plans are dropped at build time),
    which keeps the segmentation math free of zero-length edge cases.
    """

    def __init__(self, plans: dict[tuple[int, int], _PairPlan], num_partitions: int):
        """Flatten a plan dict; its plans become views of the table."""
        pairs = sorted(plans, key=lambda sd: sd[0])  # stable: keeps plan order
        lens = np.asarray([len(plans[sd].send_idx) for sd in pairs], dtype=np.int64)
        self.seg_cols = np.stack([
            np.asarray([s for s, _ in pairs], dtype=np.int64),
            np.asarray([d for _, d in pairs], dtype=np.int64),
            lens,
            Bitset.packed_nbytes(lens),
        ])
        self.seg_src, self.seg_dst, self.seg_len, self.seg_bitset_bytes = self.seg_cols
        self.seg_off = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(lens, out=self.seg_off[1:])
        self.flat_send = np.concatenate([plans[sd].send_idx for sd in pairs] or [_EMPTY])
        self.flat_recv = np.concatenate([plans[sd].recv_idx for sd in pairs] or [_EMPTY])
        bounds = self.seg_off.tolist()
        for sd, lo, hi in zip(pairs, bounds, bounds[1:]):
            plans[sd].send_idx = self.flat_send[lo:hi]
            plans[sd].recv_idx = self.flat_recv[lo:hi]
        self.plans = plans
        self.sender_seg = np.searchsorted(self.seg_src, np.arange(num_partitions + 1))
        self.sender_off = self.seg_off[self.sender_seg].tolist()
        self.planned = np.zeros((num_partitions, num_partitions), dtype=bool)
        self.planned[self.seg_src, self.seg_dst] = True


class GluonComm:
    """Synchronization engine for one partitioned graph and field set."""

    def __init__(
        self,
        pg: PartitionedGraph,
        fields: list[FieldSpec],
        config: CommConfig = CommConfig(),
        check=None,
    ):
        """``check`` selects the invariant-checking level (see
        :mod:`repro.check`): ``None`` reads the ambient level, ``"off"`` /
        ``"cheap"`` / ``"full"`` (or :class:`~repro.check.CheckLevel`)
        force one.  CHEAP validates plan/table structure once at
        construction; FULL additionally holds every extraction to the
        per-element oracle, sender by sender."""
        from repro.check.level import CheckLevel, resolve_check_level

        self.pg = pg
        self.config = config
        self.check_level = resolve_check_level(check)
        #: hot-path flag: the FULL-level oracle observes every extraction
        self._check_full = self.check_level >= CheckLevel.FULL
        self.fields = {f.name: f for f in fields}
        if len(self.fields) != len(fields):
            raise ConfigurationError("duplicate field names")
        # updated[field][p] — dirty bits over partition p's local proxies
        self.updated: dict[str, list[Bitset]] = {
            f.name: [Bitset(p.num_local) for p in pg.parts] for f in fields
        }
        # tables[field] -> (reduce table, broadcast table); plans[field]
        # -> their (sender, receiver) -> _PairPlan dicts
        self._tables: dict[str, tuple[_ExchangeTable, _ExchangeTable]] = {
            f.name: self._tables_for(f) for f in fields
        }
        self._plans = {
            name: (red.plans, bc.plans)
            for name, (red, bc) in self._tables.items()
        }
        if self.check_level:
            from repro.check.comm import check_comm_structure

            check_comm_structure(self)

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #
    def _tables_for(self, spec: FieldSpec):
        """Build (or fetch memoized) exchange tables for one field.

        Tables depend only on the partitioned graph, the field's
        read/write locations, and the filtering flag — not on the field
        name, dtype, or reduce op — so they are cached on the
        :class:`PartitionedGraph` and shared across fields, engines, and
        rounds (the cross-round sync-plan memoization).
        """
        cache = self.pg.__dict__.setdefault("_gluon_plan_cache", {})
        key = (spec.read_at, spec.write_at, self.config.invariant_filtering)
        hit = cache.get(key)
        if hit is None:
            P = self.pg.num_partitions
            hit = cache[key] = tuple(
                _ExchangeTable(plans, P) for plans in self._build_plans(spec)
            )
        return hit

    def _proxy_filter(self, part, location: str) -> np.ndarray:
        """Which local proxies can read/write a field at ``location``."""
        if location == "src":
            return part.has_out_edges()
        if location == "dst":
            return part.has_in_edges()
        return np.ones(part.num_local, dtype=bool)  # "any"

    def _build_plans(self, spec: FieldSpec):
        reduce_plans: dict[tuple[int, int], _PairPlan] = {}
        broadcast_plans: dict[tuple[int, int], _PairPlan] = {}
        filtering = self.config.invariant_filtering

        if spec.write_at != "master":
            for r in self.pg.parts:  # r = mirror side (reduce sender)
                writable = (
                    self._proxy_filter(r, spec.write_at) if filtering else None
                )
                for m, send_idx in r.mirror_exchange.items():
                    recv_idx = self.pg.parts[m].master_exchange[r.pid]
                    if writable is not None:
                        mask = writable[send_idx]
                        if not mask.any():
                            continue
                        send_idx = send_idx[mask]
                        recv_idx = recv_idx[mask]
                    if len(send_idx) == 0:
                        continue  # degenerate exchange list: no plan
                    reduce_plans[(r.pid, m)] = _PairPlan(send_idx, recv_idx)

        if spec.read_at != "none":
            for r in self.pg.parts:  # r = mirror side (broadcast receiver)
                readable = (
                    self._proxy_filter(r, spec.read_at) if filtering else None
                )
                for m, recv_idx in r.mirror_exchange.items():
                    send_idx = self.pg.parts[m].master_exchange[r.pid]
                    if readable is not None:
                        mask = readable[recv_idx]
                        if not mask.any():
                            continue
                        send_idx = send_idx[mask]
                        recv_idx = recv_idx[mask]
                    if len(send_idx) == 0:
                        continue
                    broadcast_plans[(m, r.pid)] = _PairPlan(send_idx, recv_idx)

        return reduce_plans, broadcast_plans

    # ------------------------------------------------------------------ #
    # introspection (used by tests, stats, and the study's analysis)
    # ------------------------------------------------------------------ #
    def reduce_partners(self, field: str, pid: int) -> list[int]:
        """Partitions ``pid`` sends reduce messages to."""
        return sorted(m for (r, m) in self._plans[field][0] if r == pid)

    def broadcast_partners(self, field: str, pid: int) -> list[int]:
        """Partitions ``pid`` sends broadcast messages to."""
        return sorted(r for (m, r) in self._plans[field][1] if m == pid)

    def _table(self, field: str, phase: str) -> _ExchangeTable:
        return self._tables[field][0 if phase == "reduce" else 1]

    def mark_updated(self, field: str, pid: int, local_ids) -> None:
        """Engine hook: record that the operator wrote these proxies."""
        self.updated[field][pid].set(local_ids)

    def pending_sends(self, field: str, phase: str, pid: int) -> bool:
        """Was any proxy in ``pid``'s outgoing exchange for this phase
        written since its last send?  (One bulk gather over the sender's
        table slice; dirty bits on proxies outside every exchange list do
        not count — they can never produce a message.)"""
        table = self._table(field, phase)
        lo, hi = table.sender_off[pid], table.sender_off[pid + 1]
        return bool(self.updated[field][pid].bits[table.flat_send[lo:hi]].any())

    # ------------------------------------------------------------------ #
    # extraction
    # ------------------------------------------------------------------ #
    def _extract(self, field: str, phase: str, pids, labels) -> SendBatch:
        """The outgoing messages of ``pids`` for one phase, as one batch.

        Under UO only dirty elements ship (dirty bits for sent proxies are
        cleared; reduce-phase accumulators are reset to identity).  Under
        AS the full invariant-filtered exchange ships, and everything
        shipped counts as sent: dirty bits drop and accumulators reset
        exactly as under UO.  A sender serving several partners (broadcast
        along a CVC grid row) clears once, after every partner's payload
        was gathered.
        """
        spec = self.fields[field]
        table = self._table(field, phase)
        uo = self.config.update_only
        reset = phase == "reduce" and spec.reset_after_reduce
        dirty = self.updated[field]
        flat_send, sender_off = table.flat_send, table.sender_off
        sent, hits, vals = [], [], []
        for p in pids:
            lo, hi = sender_off[p], sender_off[p + 1]
            if lo == hi:
                continue
            sel = flat_send[lo:hi]
            if uo:
                # one dirty-bit gather over the sender's whole slice
                hit = dirty[p].bits[sel].nonzero()[0]
                if not len(hit):
                    continue
                sel = sel[hit]
                hits.append(hit + lo)
            lab = labels[p]
            sent.append(p)
            vals.append(lab[sel])
            dirty[p].clear(sel)
            if reset:
                lab[sel] = spec.identity

        if not sent:
            return SendBatch.empty(field, phase, spec.dtype)
        values = vals[0] if len(vals) == 1 else np.concatenate(vals)
        if uo:
            # segment the hits back into per-partner messages: a message
            # is a run of hits inside one segment (a partner whose
            # segment has no dirty proxy gets none)
            hit = hits[0] if len(hits) == 1 else np.concatenate(hits)
            seg_of = np.searchsorted(table.seg_off, hit, side="right") - 1
            starts = (seg_of[1:] != seg_of[:-1]).nonzero()[0] + 1
            offsets = np.concatenate((_ZERO, starts, (len(hit),)))
            seg = seg_of[offsets[:-1]]
            targets = table.flat_recv[hit]
        else:
            hit = None
            sender_seg = table.sender_seg
            seg = np.concatenate(
                [np.arange(sender_seg[p], sender_seg[p + 1]) for p in sent]
            )
            offsets = np.zeros(len(seg) + 1, dtype=np.int64)
            np.cumsum(table.seg_len[seg], out=offsets[1:])
            targets = np.concatenate(
                [table.flat_recv[sender_off[p]:sender_off[p + 1]] for p in sent]
            )
        src, dst, seg_len, bitset_bytes = table.seg_cols[:, seg]
        num = offsets[1:] - offsets[:-1]
        wire = HEADER_BYTES + num * values.dtype.itemsize
        if not self.config.memoize_addresses:
            wire += num * GID_BYTES  # every element ships its global id
        elif uo:
            # memoized subset => packed bitset over the exchange order
            wire += bitset_bytes
        # UO's extraction scan visits the partner's whole exchange list
        scanned = seg_len if uo else np.zeros_like(seg_len)
        return SendBatch(
            field, phase, seg, src, dst, num, scanned, wire, offsets, targets,
            values, hit,
        )

    def _make(self, field: str, phase: str, pids, labels) -> SendBatch:
        if self._check_full:
            from repro.check.comm import differential_extract

            batch = differential_extract(self, field, phase, pids, labels)
        else:
            batch = self._extract(field, phase, pids, labels)
        tracer = obs.current_tracer()
        if tracer.enabled and len(batch):
            # per-field/per-phase messages and wire bytes, off the batch
            # (a sum and two f-strings: several times a disabled call)
            tracer.count(f"comm.{phase}.{field}.messages", len(batch))
            tracer.count(
                f"comm.{phase}.{field}.bytes", int(batch.wire_bytes.sum())
            )
        return batch

    def make_reduce_messages(
        self, field: str, pids, labels: list[np.ndarray]
    ) -> SendBatch:
        """Extract the reduce messages (mirror -> master) of ``pids``."""
        return self._make(field, "reduce", pids, labels)

    def make_broadcast_messages(
        self, field: str, pids, labels: list[np.ndarray]
    ) -> SendBatch:
        """Extract the broadcast messages (master -> mirrors) of ``pids``."""
        return self._make(field, "broadcast", pids, labels)

    def messages(self, batch: SendBatch) -> list[Message]:
        """Materialise a batch into per-object messages (the check oracle,
        tests and :meth:`bsp_sync` callers read these; the engines never
        do)."""
        table = self._table(batch.field, batch.phase)
        offs = batch.offsets.tolist()
        seg_lo = table.seg_off[batch.seg].tolist()
        rel = None
        if batch.hits is not None:
            rel = batch.hits - np.repeat(table.seg_off[batch.seg], batch.num_elements)
        out = []
        for k, (src, dst) in enumerate(zip(batch.src.tolist(), batch.dst.tolist())):
            lo, hi = offs[k], offs[k + 1]
            ids = None
            if not self.config.memoize_addresses:
                at = (
                    batch.hits[lo:hi] if rel is not None
                    else slice(seg_lo[k], seg_lo[k] + hi - lo)
                )
                ids = self.pg.parts[src].local_to_global[table.flat_send[at]]
            out.append(
                Message(
                    header=MessageHeader(src, dst, batch.phase, batch.field),
                    values=batch.values[lo:hi],
                    positions=None if rel is None else rel[lo:hi],
                    exchange_len=int(table.seg_len[batch.seg[k]]),
                    explicit_ids=ids,
                    scanned_elements=int(batch.scanned_elements[k]),
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _planned(self, batch: SendBatch) -> None:
        """Every message of a batch must travel a planned pair."""
        table = self._table(batch.field, batch.phase)
        ok = table.planned[batch.src, batch.dst]
        if not ok.all():
            k = int(np.flatnonzero(~ok)[0])
            raise CommunicationError(
                f"no {batch.phase} plan {int(batch.src[k])}->"
                f"{int(batch.dst[k])} for {batch.field}"
            )

    def records(self, batch: SendBatch) -> list[tuple]:
        """``(dst, targets, values)`` per message, in batch order — what a
        BASP flush puts in flight."""
        self._planned(batch)
        offs = batch.offsets.tolist()
        targets, values = batch.targets, batch.values
        return [
            (dst, targets[offs[k]:offs[k + 1]], values[offs[k]:offs[k + 1]])
            for k, dst in enumerate(batch.dst.tolist())
        ]

    def deliveries(self, batch: SendBatch):
        """Yield ``(dst, [targets], [values])`` per receiver: each
        receiver's share of the batch, its messages concatenated in sender
        order — what a BSP sync step applies.  A generator, so the
        grouping runs where the deliveries are consumed: inside
        :meth:`apply_reduce` / :meth:`apply_broadcast`."""
        if not len(batch):
            return
        self._planned(batch)
        order = np.argsort(batch.dst, kind="stable")
        lens = batch.num_elements[order]
        ends = np.cumsum(lens)
        # element permutation: message ``order[j]``'s range lands at
        # ``ends[j] - lens[j]``
        shift = batch.offsets[:-1][order] - (ends - lens)
        perm = np.arange(len(batch.targets)) + np.repeat(shift, lens)
        targets, values = batch.targets[perm], batch.values[perm]
        dst = batch.dst[order]
        first = np.concatenate((_ZERO, (dst[1:] != dst[:-1]).nonzero()[0] + 1))
        bounds = _receiver_bounds(first, ends)
        for d, lo, hi in zip(dst[first].tolist(), bounds, bounds[1:]):
            yield d, [targets[lo:hi]], [values[lo:hi]]

    def apply_reduce(
        self, field: str, deliveries, labels: list[np.ndarray]
    ) -> list[tuple]:
        """Combine reduce deliveries into their receivers' masters.

        A delivery is ``(dst, target pieces, value pieces)``: everything
        one receiver gets, the pieces in delivery order (a BSP step's
        share from :meth:`deliveries`, or the records one BASP drain
        popped).  Targets may repeat (several mirrors of one master):
        ``ufunc.at`` combines them one element at a time in that order,
        which is the float sequence message-by-message application
        produced.  Returns ``(dst, changed)`` per delivery — the local
        IDs whose value changed, possibly with repeats; those masters are
        marked dirty so the following broadcast propagates them, and the
        engine activates them in its worklist.
        """
        spec = self.fields[field]
        out = []
        for dst, targets, values in deliveries:
            targets, values = _whole(targets), _whole(values)
            lab = labels[dst]
            if spec.reduce_op == "add":
                np.add.at(lab, targets, values)
                changed = targets[values != 0]
            else:
                old = lab[targets]
                _REDUCERS[spec.reduce_op].at(lab, targets, values)
                changed = targets[lab[targets] != old]
            if len(changed):
                self.updated[field][dst].set(changed)
            out.append((dst, changed))
        return out

    def apply_broadcast(
        self, field: str, deliveries, labels: list[np.ndarray]
    ) -> list[tuple]:
        """Install broadcast deliveries into their receivers' mirrors.

        Returns ``(dst, changed)`` per delivery (worklist activation);
        mirrors are *not* marked dirty — a broadcast value is canonical and
        must not be reduced back.

        Min/max fields merge with their reducer instead of overwriting.
        In-order delivery this is identical (the master's value always
        dominates a mirror's), but under BASP two broadcasts of one field
        can arrive inverted (a later, heavier message can ride a longer
        simulated inter-host leg); merging keeps the mirror monotone
        instead of regressing it to the stale value.  Every other field
        overwrites, so the targets of one delivery must be distinct: one
        sync step (a mirror has one master) or one in-flight record — two
        overwrites of one proxy are two deliveries.
        """
        spec = self.fields[field]
        merge = spec.reduce_op in ("min", "max")
        out = []
        for dst, targets, values in deliveries:
            targets, values = _whole(targets), _whole(values)
            lab = labels[dst]
            old = lab[targets]
            if merge:
                _REDUCERS[spec.reduce_op].at(lab, targets, values)
                values = lab[targets]
            else:
                lab[targets] = values
            out.append((dst, targets[old != values]))
        return out

    # ------------------------------------------------------------------ #
    # bulk-synchronous convenience
    # ------------------------------------------------------------------ #
    def bsp_sync(
        self, field: str, labels: list[np.ndarray]
    ) -> tuple[list[Message], list[np.ndarray]]:
        """One full BSP synchronization of ``field``.

        Returns every message generated (for cost accounting) and, per
        partition, the local IDs whose value changed (for worklist
        activation on the receiving side).
        """
        P = self.pg.num_partitions
        changed: list[list[np.ndarray]] = [[] for _ in range(P)]
        msgs: list[Message] = []
        for make, apply in (
            (self.make_reduce_messages, self.apply_reduce),
            (self.make_broadcast_messages, self.apply_broadcast),
        ):
            batch = make(field, range(P), labels)
            msgs += self.messages(batch)
            for dst, ch in apply(field, self.deliveries(batch), labels):
                if len(ch):
                    changed[dst].append(ch)

        merged = [
            unique_ids(np.concatenate(c), len(labels[p]))
            if c else np.empty(0, dtype=np.int64)
            for p, c in enumerate(changed)
        ]
        return msgs, merged



def _whole(pieces: list) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _receiver_bounds(first: np.ndarray, ends: np.ndarray) -> list[int]:
    """Element bounds of the receiver groups of a dst-sorted batch:
    ``first[g]`` is group ``g``'s first message, ``ends[m]`` the element
    count through message ``m``."""
    return [0] + ends[first[1:] - 1].tolist() + ends[-1:].tolist()

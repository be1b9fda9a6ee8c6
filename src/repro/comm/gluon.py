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

The **batch** is the unit of the sync path, and a field's state is
**flat**: one label array per field (:class:`FieldViews`, partition after
partition) and one dirty array, the per-partition arrays and ``Bitset``s
being views.  Per (field contract, phase) every pair plan lives in one
:class:`_ExchangeTable` — the aligned ``flat_send`` / ``flat_recv`` index
arrays, one *segment* per (sender, receiver) pair, senders in order, plus
``glob_send``, the senders' positions in the flat arrays — and the
per-pair plans are views into it.  An extraction works a *table range*
(the whole table in a BSP sync step, one sender's slice in a BASP flush):
one dirty-bit gather, one value gather, one clear, then segmentation into
one :class:`~repro.comm.buffers.SendBatch` of per-message columns the
router prices directly and per-element receiver targets and values.  An
apply scatters a batch into the flat array with ``ufunc.at`` in batch
order, which replays the per-message float sequence exactly.  No
``Message`` object is built on the way; :meth:`GluonComm.messages`
materialises a batch for the check oracle and for tests.  Tables depend only on the partitioned graph, the field's
read/write locations, and the filtering flag, so they are memoized on the
:class:`PartitionedGraph` and shared by every engine/run over the same
partitions.
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
from repro.partition.base import PartitionedGraph

__all__ = ["FieldSpec", "CommConfig", "FieldViews", "GluonComm"]

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


class FieldViews(list):
    """One label field of every partition: ``flat`` holds all proxies'
    values, partition after partition, and item ``p`` is the view of
    partition ``p``'s slice.  Extraction and apply index ``flat``;
    operators, checkers and the oracle use the views, which must be
    written in place, never rebound.  Built by copying one array per
    partition, in pid order."""

    def __init__(self, arrays: list[np.ndarray]):
        self.flat = np.concatenate(arrays)
        super().__init__(
            np.split(self.flat, np.cumsum([len(a) for a in arrays[:-1]]))
        )


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
    extraction).  ``glob_send`` is ``flat_send`` shifted by each sender's
    base: the same proxies as positions in a flat field array.
    ``planned[src, dst]`` says whether a pair has a segment.
    Segments are never empty (empty plans are dropped at build time),
    which keeps the segmentation math free of zero-length edge cases.
    """

    def __init__(self, plans: dict[tuple[int, int], _PairPlan], base: np.ndarray):
        """Flatten a plan dict; its plans become views of the table.
        ``base[p]`` is partition ``p``'s first position in a flat field
        array (``base[-1]`` the total proxy count)."""
        num_partitions = len(base) - 1
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
        self.glob_send = self.flat_send + np.repeat(base[self.seg_src], lens)
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
        cache = pg.__dict__.setdefault("_gluon_plan_cache", {})
        #: base[p] — partition p's first position in a flat field array
        self.base: np.ndarray = cache.get("base")
        if self.base is None:
            self.base = cache["base"] = np.concatenate(
                (_ZERO, np.cumsum(pg.local_vertex_counts()))
            )
        bounds = self.base.tolist()
        # one flat dirty array per field; updated[field][p] views the bits
        # over partition p's local proxies
        self._dirty = {f.name: Bitset(bounds[-1]) for f in fields}
        self.updated: dict[str, list[Bitset]] = {
            name: [bits.view(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            for name, bits in self._dirty.items()
        }
        # tables[field] -> (reduce table, broadcast table), each with its
        # (sender, receiver) -> _PairPlan dict; empty[field, phase] -> the
        # batch an extraction with nothing to send returns
        self._tables: dict[str, tuple[_ExchangeTable, _ExchangeTable]] = {
            f.name: self._tables_for(f) for f in fields
        }
        self._empty = {
            (f.name, phase): SendBatch.empty(f.name, phase, f.dtype)
            for f in fields for phase in ("reduce", "broadcast")
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
            hit = cache[key] = tuple(
                _ExchangeTable(plans, self.base)
                for plans in self._build_plans(spec)
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
        """``(reduce plans, broadcast plans)``: for every mirror-side
        partition ``r`` and master-side ``m``, their exchange lists cut to
        the mirrors that can write (reduce, ``r -> m``) or read
        (broadcast, ``m -> r``) the field."""
        plans: tuple[dict, dict] = {}, {}
        filtering = self.config.invariant_filtering
        for out, location, never in zip(
            plans, (spec.write_at, spec.read_at), ("master", "none")
        ):
            if location == never:
                continue
            for r in self.pg.parts:
                able = self._proxy_filter(r, location) if filtering else None
                for m, mirror_idx in r.mirror_exchange.items():
                    master_idx = self.pg.parts[m].master_exchange[r.pid]
                    if able is not None:
                        mask = able[mirror_idx]
                        mirror_idx, master_idx = mirror_idx[mask], master_idx[mask]
                    if len(mirror_idx) == 0:
                        continue  # filtered out, or a degenerate list: no plan
                    if out is plans[0]:
                        out[(r.pid, m)] = _PairPlan(mirror_idx, master_idx)
                    else:
                        out[(m, r.pid)] = _PairPlan(master_idx, mirror_idx)
        return plans

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
        return bool(self._dirty[field].bits[table.glob_send[lo:hi]].any())

    # ------------------------------------------------------------------ #
    # extraction
    # ------------------------------------------------------------------ #
    def _extract(
        self, field: str, phase: str, pids: range, labels: FieldViews
    ) -> SendBatch:
        """The outgoing messages of senders ``pids`` for one phase, as one
        batch.  ``pids`` is a ``range``: the table groups its segments by
        sender in pid order, so consecutive senders own one slice of it
        (the whole table for ``range(P)``, nothing for an empty range).

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
        dirty, flat = self._dirty[field], labels.flat
        lo, hi = table.sender_off[pids.start], table.sender_off[pids.stop]
        sel = table.glob_send[lo:hi]
        if uo:
            # one dirty-bit gather over the whole range
            hit = dirty.bits[sel].nonzero()[0]
            sel = sel[hit]
            hit += lo
        if not len(sel):
            return self._empty[field, phase]
        values = flat[sel]
        dirty.clear(sel)
        if phase == "reduce" and spec.reset_after_reduce:
            flat[sel] = spec.identity

        s0, s1 = table.sender_seg[pids.start], table.sender_seg[pids.stop]
        if uo:
            # segment the hits back into per-partner messages: the hits
            # are sorted, so the range's segment bounds cut them (a
            # partner whose segment has no dirty proxy gets no message)
            cuts = np.searchsorted(hit, table.seg_off[s0:s1 + 1])
            live = (cuts[1:] != cuts[:-1]).nonzero()[0]
            offsets = np.concatenate((cuts[live], cuts[-1:]))
            seg = live + s0
            targets = table.flat_recv[hit]
        else:
            hit = None
            seg = np.arange(s0, s1)
            offsets = table.seg_off[s0:s1 + 1] - lo
            targets = table.flat_recv[lo:hi]
        src, dst, seg_len, bitset_bytes = table.seg_cols.take(seg, axis=1)
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

    def _make(self, field: str, phase: str, pids: range, labels) -> SendBatch:
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
        self, field: str, pids: range, labels: FieldViews
    ) -> SendBatch:
        """Extract the reduce messages (mirror -> master) of senders
        ``pids``, a ``range`` of consecutive partition ids."""
        return self._make(field, "reduce", pids, labels)

    def make_broadcast_messages(
        self, field: str, pids: range, labels: FieldViews
    ) -> SendBatch:
        """Extract the broadcast messages (master -> mirrors) of senders
        ``pids``, a ``range`` of consecutive partition ids."""
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
        """Every message of a batch must travel a planned pair — checked
        before a step is applied or put in flight."""
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

    def _apply(self, field: str, phase: str, batch, labels: FieldViews) -> np.ndarray:
        """Scatter a batch's values into their receivers' proxies.

        ``batch`` is a :class:`SendBatch` (a BSP step: every receiver at
        once; it names its senders, so its pairs are checked here) or a
        :class:`~repro.comm.buffers.Delivery` (what one BASP receiver
        drained, checked by :meth:`records` when it was put in flight).
        Targets become flat positions and may repeat (several mirrors of
        one master): ``ufunc.at`` combines them one element at a time in
        batch order — senders in order — which is the float sequence
        message-by-message application produced.  Returns the flat
        positions whose value changed, possibly with repeats.
        """
        shift = self.base[batch.dst]  # per message, or the one receiver's
        if isinstance(batch, SendBatch):
            self._planned(batch)
            shift = np.repeat(shift, batch.num_elements)
        op = self.fields[field].reduce_op
        flat = labels.flat
        at = batch.targets + shift
        values = batch.values
        if op != "add":
            # min/max: a reduce, or a broadcast merged with the reducer
            old = flat[at]
            _REDUCERS[op].at(flat, at, values)
            changed = at[flat[at] != old]
        elif phase == "reduce":
            np.add.at(flat, at, values)
            changed = at[values != 0]
        else:
            # an overwriting broadcast: targets are distinct
            old = flat[at]
            flat[at] = values
            changed = at[old != values]
        if phase == "reduce" and len(changed):
            self._dirty[field].set(changed)
        return changed

    def apply_reduce(self, field: str, batch, labels: FieldViews) -> np.ndarray:
        """Combine reduce messages into their receivers' masters.  The
        changed masters (returned as flat positions, see
        :meth:`by_receiver`) are marked dirty so the following broadcast
        propagates them, and the engine activates them in its worklist."""
        return self._apply(field, "reduce", batch, labels)

    def apply_broadcast(self, field: str, batch, labels: FieldViews) -> np.ndarray:
        """Install broadcast messages into their receivers' mirrors.

        Returns the flat positions of the mirrors whose value changed
        (worklist activation); mirrors are *not* marked dirty — a
        broadcast value is canonical and must not be reduced back.

        Min/max fields merge with their reducer instead of overwriting.
        In-order delivery this is identical (the master's value always
        dominates a mirror's), but under BASP two broadcasts of one field
        can arrive inverted (a later, heavier message can ride a longer
        simulated inter-host leg); merging keeps the mirror monotone
        instead of regressing it to the stale value.  Every other field
        overwrites, so the targets of one batch must be distinct: one
        sync step (a mirror has one master) or one in-flight record — two
        overwrites of one proxy are two applies.
        """
        return self._apply(field, "broadcast", batch, labels)

    def by_receiver(self, changed: np.ndarray) -> list[tuple]:
        """Flat positions as ``(pid, sorted local ids)`` per partition
        that owns any — only the changed elements are ever grouped."""
        changed = np.sort(changed)
        cuts = np.searchsorted(changed, self.base).tolist()
        return [
            (p, changed[lo:hi] - self.base[p])
            for p, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi
        ]

    # ------------------------------------------------------------------ #
    # bulk-synchronous convenience
    # ------------------------------------------------------------------ #
    def bsp_sync(
        self, field: str, labels: FieldViews
    ) -> tuple[list[Message], list[np.ndarray]]:
        """One full BSP synchronization of ``field``.

        Returns every message generated (for cost accounting) and, per
        partition, the local IDs whose value changed (for worklist
        activation on the receiving side).
        """
        P = self.pg.num_partitions
        changed: list[np.ndarray] = []
        msgs: list[Message] = []
        for make, apply in (
            (self.make_reduce_messages, self.apply_reduce),
            (self.make_broadcast_messages, self.apply_broadcast),
        ):
            batch = make(field, range(P), labels)
            msgs += self.messages(batch)
            changed.append(apply(field, batch, labels))

        merged = [_EMPTY] * P
        for p, ids in self.by_receiver(np.unique(np.concatenate(changed))):
            merged[p] = ids
        return msgs, merged

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

Extraction is the per-round hot path, so it is fully vectorized: each
sender's outgoing plans for a field are flattened into one contiguous
index table at plan-build time, the dirty-bit filter is a single NumPy
gather over that table, and per-partner messages are sliced out of bulk
gathers (see ``_SendTable``).  Plans and tables depend only on the
partitioned graph, the field's read/write locations, and the filtering
flag, so they are memoized on the :class:`PartitionedGraph` and shared by
every engine/run over the same partitions.  The pre-vectorization
per-element reference implementation is kept as :meth:`_extract_scalar`
and exercised by the differential equivalence suite
(``tests/test_comm_vectorized_equiv.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.comm.bitset import Bitset
from repro.comm.buffers import Message, MessageHeader
from repro.errors import CommunicationError, ConfigurationError
from repro.idset import unique_ids
from repro.partition.base import PartitionedGraph

__all__ = ["FieldSpec", "CommConfig", "GluonComm"]

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
    """Aligned send/recv index lists for one (sender, receiver) pair."""

    send_idx: np.ndarray  # local ids on the sender
    recv_idx: np.ndarray  # local ids on the receiver, aligned element-wise


@dataclass
class _SendTable:
    """One sender's outgoing plans for a field, flattened for bulk ops.

    ``flat_send`` is the concatenation of every partner's ``send_idx``;
    ``offsets[k]:offsets[k+1]`` delimits partner ``k``'s segment.  A UO
    extraction gathers the dirty bits for the whole table at once instead
    of once per partner, and slices per-partner payloads out of a single
    bulk value gather.  Segments are never empty (empty plans are dropped
    at build time), which keeps the segmentation math free of zero-length
    fancy-index edge cases.
    """

    receivers: list[int]  # partner pid per segment, in plan order
    plans: list[_PairPlan]  # aligned with receivers
    flat_send: np.ndarray  # concat of every plan.send_idx
    offsets: np.ndarray  # int64, len(receivers) + 1

    @property
    def num_segments(self) -> int:
        return len(self.receivers)


def _build_send_tables(
    plans: dict[tuple[int, int], _PairPlan], num_partitions: int
) -> list[_SendTable | None]:
    """Group a plan dict by sender into flat extraction tables."""
    grouped: list[tuple[list[int], list[_PairPlan]]] = [
        ([], []) for _ in range(num_partitions)
    ]
    for (s, d), plan in plans.items():
        grouped[s][0].append(d)
        grouped[s][1].append(plan)
    tables: list[_SendTable | None] = []
    for receivers, pair_plans in grouped:
        if not receivers:
            tables.append(None)
            continue
        lens = np.asarray([len(p.send_idx) for p in pair_plans], dtype=np.int64)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        tables.append(
            _SendTable(
                receivers=receivers,
                plans=pair_plans,
                flat_send=np.concatenate([p.send_idx for p in pair_plans]),
                offsets=offsets,
            )
        )
    return tables


class GluonComm:
    """Synchronization engine for one partitioned graph and field set."""

    def __init__(
        self,
        pg: PartitionedGraph,
        fields: list[FieldSpec],
        config: CommConfig = CommConfig(),
        tracer=None,
        check=None,
    ):
        """``check`` selects the invariant-checking level (see
        :mod:`repro.check`): ``None`` reads the ambient level, ``"off"`` /
        ``"cheap"`` / ``"full"`` (or :class:`~repro.check.CheckLevel`)
        force one.  CHEAP validates plan/table structure once at
        construction; FULL additionally runs every extraction through the
        scalar reference path differentially."""
        from repro.check.level import CheckLevel, resolve_check_level

        self.pg = pg
        self.config = config
        #: normalized like the engines': ``None`` unless enabled, so the
        #: extraction wrappers pay one ``is not None`` test per call.
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.check_level = resolve_check_level(check)
        #: hot-path flag: route every extraction through the differential
        #: vectorized-vs-scalar comparison.
        self._check_full = self.check_level >= CheckLevel.FULL
        self.fields = {f.name: f for f in fields}
        if len(self.fields) != len(fields):
            raise ConfigurationError("duplicate field names")
        #: when True, extraction runs the pre-vectorization per-element
        #: reference path — kept for differential testing and for the
        #: regression bench's scalar-vs-vectorized speedup measurement.
        self.use_scalar_extraction = False
        # updated[field][p] — dirty bits over partition p's local proxies
        self.updated: dict[str, list[Bitset]] = {
            f.name: [Bitset(p.num_local) for p in pg.parts] for f in fields
        }
        # plans[field] -> (reduce_plans, broadcast_plans); each maps
        # (sender, receiver) -> _PairPlan.  tables[field] -> per-sender
        # flat extraction tables for (reduce, broadcast).
        self._plans: dict[str, tuple[dict, dict]] = {}
        self._tables: dict[str, tuple[list, list]] = {}
        for f in fields:
            plans, tables = self._plans_for(f)
            self._plans[f.name] = plans
            self._tables[f.name] = tables
        if self.check_level:
            from repro.check.comm import check_comm_structure

            check_comm_structure(self)

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #
    def _plans_for(self, spec: FieldSpec):
        """Build (or fetch memoized) plans + tables for one field.

        Plans depend only on the partitioned graph, the field's
        read/write locations, and the filtering flag — not on the field
        name, dtype, or reduce op — so they are cached on the
        :class:`PartitionedGraph` and shared across fields, engines, and
        rounds (the cross-round sync-plan memoization).
        """
        cache = self.pg.__dict__.setdefault("_gluon_plan_cache", {})
        key = (spec.read_at, spec.write_at, self.config.invariant_filtering)
        hit = cache.get(key)
        if hit is None:
            plans = self._build_plans(spec)
            tables = (
                _build_send_tables(plans[0], self.pg.num_partitions),
                _build_send_tables(plans[1], self.pg.num_partitions),
            )
            hit = cache[key] = (plans, tables)
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

    def mark_updated(self, field: str, pid: int, local_ids) -> None:
        """Engine hook: record that the operator wrote these proxies."""
        self.updated[field][pid].set(local_ids)

    def pending_sends(self, field: str, phase: str, pid: int) -> bool:
        """Was any proxy in ``pid``'s outgoing exchange for this phase
        written since its last send?  (One bulk gather over the flat
        table; dirty bits on proxies outside every exchange list do not
        count — they can never produce a message.)"""
        table = self._tables[field][0 if phase == "reduce" else 1][pid]
        if table is None:
            return False
        return bool(self.updated[field][pid].bits[table.flat_send].any())

    # ------------------------------------------------------------------ #
    # extraction (vectorized hot path)
    # ------------------------------------------------------------------ #
    def _extract(self, field: str, phase: str, pid: int, labels) -> list[Message]:
        """Build partition ``pid``'s outgoing messages for one phase.

        Dispatches to the vectorized hot path, the scalar reference, or —
        at FULL check level — the differential comparison of the two
        (which returns the vectorized result after verifying equivalence).
        """
        if self.use_scalar_extraction:
            return self._extract_scalar(field, phase, pid, labels)
        if self._check_full:
            from repro.check.comm import differential_extract

            return differential_extract(self, field, phase, pid, labels)
        return self._extract_vectorized(field, phase, pid, labels)

    def _extract_vectorized(
        self, field: str, phase: str, pid: int, labels
    ) -> list[Message]:
        """Vectorized extraction (the production path).

        Under UO only dirty elements ship (dirty bits for sent proxies are
        cleared; reduce-phase accumulators are reset to identity).  Under
        AS the full invariant-filtered exchange ships.
        """
        spec = self.fields[field]
        table = self._tables[field][0 if phase == "reduce" else 1][pid]
        if table is None:
            return []
        cfg = self.config
        part = self.pg.parts[pid]
        lab = labels[pid]
        memoized = cfg.memoize_addresses
        out: list[Message] = []

        if not cfg.update_only:
            # AS: every plan ships in full — one bulk gather, sliced per
            # partner along the precomputed offsets.
            vals = lab[table.flat_send]
            ids = None if memoized else part.local_to_global[table.flat_send]
            offs = table.offsets
            for k, dst in enumerate(table.receivers):
                lo, hi = offs[k], offs[k + 1]
                out.append(
                    Message(
                        header=MessageHeader(pid, dst, phase, field),
                        values=vals[lo:hi],
                        positions=None,
                        exchange_len=len(table.plans[k].send_idx),
                        explicit_ids=(
                            ids[lo:hi] if ids is not None else None
                        ),
                        scanned_elements=0,
                    )
                )
            # Everything shipped counts as sent: dirty bits drop and
            # accumulators reset exactly as under UO.
            self.updated[field][pid].clear(table.flat_send)
            if phase == "reduce" and spec.reset_after_reduce:
                lab[table.flat_send] = spec.identity
            return out

        # UO: one dirty-bit gather over the whole flat table, then
        # segment the hits back into per-partner messages.
        dirty = self.updated[field][pid]
        flat_mask = dirty.bits[table.flat_send]
        hits = np.flatnonzero(flat_mask)
        if len(hits) == 0:
            return out
        seg_of = np.searchsorted(table.offsets, hits, side="right") - 1
        rel = hits - table.offsets[seg_of]  # positions within each plan
        counts = np.bincount(seg_of, minlength=table.num_segments)
        bounds = np.zeros(table.num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        flat_sel = table.flat_send[hits]
        flat_vals = lab[flat_sel]
        flat_ids = None if memoized else part.local_to_global[flat_sel]
        for k, dst in enumerate(table.receivers):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == hi:
                # zero dirty proxies for this partner: no message, and the
                # partner's dirty bits (there are none) stay untouched.
                continue
            out.append(
                Message(
                    header=MessageHeader(pid, dst, phase, field),
                    values=flat_vals[lo:hi],
                    positions=rel[lo:hi],
                    exchange_len=len(table.plans[k].send_idx),
                    explicit_ids=(
                        flat_ids[lo:hi] if flat_ids is not None else None
                    ),
                    scanned_elements=len(table.plans[k].send_idx),
                )
            )
        # Clear only the proxies actually sent; a sender serving several
        # partners (broadcast along a CVC grid row) clears once, after
        # every partner's payload was gathered.
        dirty.clear(flat_sel)
        if phase == "reduce" and spec.reset_after_reduce:
            lab[flat_sel] = spec.identity
        return out

    # ------------------------------------------------------------------ #
    # extraction (pre-vectorization scalar reference)
    # ------------------------------------------------------------------ #
    def _extract_scalar(
        self, field: str, phase: str, pid: int, labels
    ) -> list[Message]:
        """Per-element reference implementation of :meth:`_extract`.

        Semantically identical to the vectorized path, one proxy at a
        time — the oracle for the differential equivalence suite and the
        "before" leg of the regression bench's speedup measurement.
        """
        spec = self.fields[field]
        plans = self._plans[field][0 if phase == "reduce" else 1]
        cfg = self.config
        part = self.pg.parts[pid]
        lab = labels[pid]
        dirty = self.updated[field][pid]
        out: list[Message] = []
        sent_union: list[int] = []

        for (s, d), plan in plans.items():
            if s != pid:
                continue
            send_idx = plan.send_idx
            if cfg.update_only:
                positions_l: list[int] = []
                sel_l: list[int] = []
                for i in range(len(send_idx)):
                    if dirty.bits[send_idx[i]]:
                        positions_l.append(i)
                        sel_l.append(int(send_idx[i]))
                if not sel_l:
                    continue
                positions = np.asarray(positions_l, dtype=np.int64)
                sel = np.asarray(sel_l, dtype=send_idx.dtype)
                scanned = len(send_idx)
            else:
                positions = None
                sel = send_idx
                scanned = 0
            vals = np.asarray([lab[i] for i in sel], dtype=lab.dtype)
            out.append(
                Message(
                    header=MessageHeader(pid, d, phase, field),
                    values=vals,
                    positions=positions,
                    exchange_len=len(send_idx),
                    explicit_ids=(
                        np.asarray(
                            [part.local_to_global[i] for i in sel],
                            dtype=part.local_to_global.dtype,
                        )
                        if not cfg.memoize_addresses
                        else None
                    ),
                    scanned_elements=scanned,
                )
            )
            sent_union.extend(int(i) for i in sel)

        for i in sent_union:
            dirty.bits[i] = False
        if phase == "reduce" and spec.reset_after_reduce:
            for i in sent_union:
                lab[i] = spec.identity
        return out

    # ------------------------------------------------------------------ #
    # reduce
    # ------------------------------------------------------------------ #
    def _record(self, field: str, phase: str, msgs: list[Message]) -> None:
        """Count per-field/per-phase messages and wire bytes."""
        if not msgs:
            return
        tracer = self.tracer
        tracer.count(f"comm.{phase}.{field}.messages", len(msgs))
        tracer.count(
            f"comm.{phase}.{field}.bytes",
            sum(m.wire_bytes() for m in msgs),
        )

    def make_reduce_messages(
        self, field: str, pid: int, labels: list[np.ndarray]
    ) -> list[Message]:
        """Extract this partition's reduce messages (mirror -> master)."""
        msgs = self._extract(field, "reduce", pid, labels)
        if self.tracer is not None:
            self._record(field, "reduce", msgs)
        return msgs

    def apply_reduce(
        self, msg: Message, labels: list[np.ndarray]
    ) -> np.ndarray:
        """Combine a reduce message into the master's values.

        Returns the local IDs (on the receiver) whose value changed; those
        masters are marked dirty so the following broadcast propagates them,
        and the engine activates them in its worklist.
        """
        field = msg.header.field
        spec = self.fields[field]
        plan = self._plans[field][0].get((msg.header.src, msg.header.dst))
        if plan is None:
            raise CommunicationError(
                f"no reduce plan {msg.header.src}->{msg.header.dst} for {field}"
            )
        tgt = (
            plan.recv_idx
            if msg.positions is None
            else plan.recv_idx[msg.positions]
        )
        dst = msg.header.dst
        old = labels[dst][tgt]
        if spec.reduce_op == "add":
            new = old + msg.values
            changed_mask = msg.values != 0
        else:
            new = _REDUCERS[spec.reduce_op](old, msg.values)
            changed_mask = new != old
        labels[dst][tgt] = new
        changed = tgt[changed_mask]
        if len(changed):
            self.updated[field][dst].set(changed)
        return changed

    # ------------------------------------------------------------------ #
    # broadcast
    # ------------------------------------------------------------------ #
    def make_broadcast_messages(
        self, field: str, pid: int, labels: list[np.ndarray]
    ) -> list[Message]:
        """Extract this partition's broadcast messages (master -> mirrors)."""
        msgs = self._extract(field, "broadcast", pid, labels)
        if self.tracer is not None:
            self._record(field, "broadcast", msgs)
        return msgs

    def apply_broadcast(
        self, msg: Message, labels: list[np.ndarray]
    ) -> np.ndarray:
        """Install canonical values into mirror proxies.

        Returns receiver-local IDs whose value changed (worklist activation);
        mirrors are *not* marked dirty — a broadcast value is canonical and
        must not be reduced back.

        Min/max fields merge with their reducer instead of overwriting.
        In-order delivery this is identical (the master's value always
        dominates a mirror's), but under BASP two broadcasts of one field
        can arrive inverted (a later, heavier message can ride a longer
        simulated inter-host leg); merging keeps the mirror monotone
        instead of regressing it to the stale value.
        """
        field = msg.header.field
        spec = self.fields[field]
        plan = self._plans[field][1].get((msg.header.src, msg.header.dst))
        if plan is None:
            raise CommunicationError(
                f"no broadcast plan {msg.header.src}->{msg.header.dst} for {field}"
            )
        tgt = (
            plan.recv_idx
            if msg.positions is None
            else plan.recv_idx[msg.positions]
        )
        dst = msg.header.dst
        old = labels[dst][tgt]
        if spec.reduce_op in ("min", "max"):
            new = _REDUCERS[spec.reduce_op](old, msg.values)
        else:
            new = msg.values
        changed_mask = old != new
        labels[dst][tgt] = new
        return tgt[changed_mask]

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

        for p in range(P):
            for msg in self.make_reduce_messages(field, p, labels):
                msgs.append(msg)
                ch = self.apply_reduce(msg, labels)
                if len(ch):
                    changed[msg.header.dst].append(ch)
        for p in range(P):
            for msg in self.make_broadcast_messages(field, p, labels):
                msgs.append(msg)
                ch = self.apply_broadcast(msg, labels)
                if len(ch):
                    changed[msg.header.dst].append(ch)

        merged = [
            unique_ids(np.concatenate(c), len(labels[p]))
            if c else np.empty(0, dtype=np.int64)
            for p, c in enumerate(changed)
        ]
        return msgs, merged

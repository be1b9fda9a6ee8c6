"""Gluon synchronization invariant checkers.

Three layers, matching how the substrate can break:

* :func:`check_comm_structure` (CHEAP, at :class:`GluonComm` construction):
  the memoized plans and exchange tables are internally consistent — both
  sides of every plan list the *same global vertices* in the same order,
  reduce flows mirror→master, broadcast flows master→mirror, and each
  table is exactly its pair plans laid end to end, sender by sender, with
  the plans views of it and ``glob_send`` inside each sender's slice of
  the flat field arrays.  A breach here corrupts every message silently,
  because address elision means nothing on the wire can catch it.
* :func:`check_post_sync` (FULL, after a bulk-synchronous round or at
  async quiescence): per synced min/max field, the master's value
  *dominates* every plan partner's copy (``reducer(master, mirror) ==
  master``); for ``write_at="master"`` fields — where mirrors never write
  locally — broadcast partners must agree *exactly*.  Accumulator (``add``
  / ``reset_after_reduce``) fields are excluded: their mirrors are
  deliberately stale between reductions.
* :func:`differential_extract` (FULL, per extraction): runs the batch
  extraction and, sender by sender, the per-element oracle
  (:mod:`repro.check.oracle`) on identical input state and requires
  identical messages *and* identical post-state (labels, dirty bits) on
  every partition, the senders' and everyone else's.
  This is the standing guard against exactly the class of bug a sync-path
  optimization can introduce.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantViolation

__all__ = [
    "check_comm_structure",
    "check_field_specs",
    "check_post_sync",
    "differential_extract",
]

_REDUCERS = {"min": np.minimum, "max": np.maximum, "add": np.add}

_STRUCT_STAMP = "_gluon_plans_checked"


def _fail(checker: str, message: str):
    raise InvariantViolation(message, checker=checker)


# ---------------------------------------------------------------------------
# CHEAP: plan/table structure


def check_field_specs(comm) -> None:
    """Declared identities must be neutral for their reduce op.

    Accumulator fields are reset to ``identity`` after extraction, and
    reduce-apply treats an identity payload as "no change" — both are only
    sound if ``reduce(x, identity) == x`` (reduce idempotence on the
    neutral element).
    """
    for spec in comm.fields.values():
        if not spec.reset_after_reduce:
            continue
        probe = np.asarray([0, 1, 3], dtype=spec.dtype)
        merged = _REDUCERS[spec.reduce_op](probe, spec.dtype(spec.identity))
        if not np.array_equal(merged, probe):
            _fail(
                "field-identity",
                f"field {spec.name!r}: identity {spec.identity!r} is not "
                f"neutral for reduce op {spec.reduce_op!r}",
            )


def check_comm_structure(comm) -> None:
    """Validate the (memoized) plans and exchange tables of every field."""
    check_field_specs(comm)
    pg = comm.pg
    checked = pg.__dict__.setdefault(_STRUCT_STAMP, set())
    for name, spec in comm.fields.items():
        key = (spec.read_at, spec.write_at, comm.config.invariant_filtering)
        if key in checked:
            continue
        for phase, table in zip(("reduce", "broadcast"), comm._tables[name]):
            _check_plan_dict(pg, name, phase, table.plans)
            _check_table(name, phase, table.plans, table, comm.base)
        checked.add(key)


def _check_plan_dict(pg, field: str, phase: str, plans: dict) -> None:
    for (s, d), plan in plans.items():
        sender, receiver = pg.parts[s], pg.parts[d]
        if len(plan.send_idx) != len(plan.recv_idx) or len(plan.send_idx) == 0:
            _fail(
                "plan-alignment",
                f"{field}/{phase} plan {s}->{d}: send/recv index lists must "
                "be equal-length and non-empty",
            )
        g_send = sender.local_to_global[plan.send_idx]
        g_recv = receiver.local_to_global[plan.recv_idx]
        if not np.array_equal(g_send, g_recv):
            _fail(
                "plan-alignment",
                f"{field}/{phase} plan {s}->{d}: the two sides index "
                "different global vertices — address elision would deliver "
                "values to the wrong proxies",
            )
        if phase == "reduce":
            mirror_side, master_side = sender, receiver
            mirror_idx, master_idx = plan.send_idx, plan.recv_idx
        else:
            master_side, mirror_side = sender, receiver
            master_idx, mirror_idx = plan.send_idx, plan.recv_idx
        if np.any(mirror_side.is_master[mirror_idx]):
            _fail(
                "plan-direction",
                f"{field}/{phase} plan {s}->{d}: mirror side contains a "
                "master proxy",
            )
        if not np.all(master_side.is_master[master_idx]):
            _fail(
                "plan-direction",
                f"{field}/{phase} plan {s}->{d}: master side contains a "
                "mirror proxy",
            )


def _check_table(field: str, phase: str, plans: dict, table, base) -> None:
    where = f"{field}/{phase}"
    P = len(base) - 1
    pairs = list(zip(table.seg_src.tolist(), table.seg_dst.tolist()))
    in_order = [(p, d) for p in range(P) for s, d in plans if s == p]
    if pairs != in_order:
        _fail(
            "send-table",
            f"{where}: table segments {pairs} are not the planned pairs "
            f"grouped by sender in plan order {in_order} (a pair would be "
            "lost, or messages would leave in another order)",
        )
    lens = np.asarray([len(plans[sd].send_idx) for sd in pairs], dtype=np.int64)
    expect_off = np.concatenate(([0], np.cumsum(lens)))
    if not (
        np.array_equal(table.seg_len, lens)
        and np.array_equal(table.seg_off, expect_off)
    ):
        _fail(
            "send-table",
            f"{where}: segment offsets do not match the plan lengths "
            "(segment slicing would mix partners)",
        )
    for side, flat in (("send", table.flat_send), ("recv", table.flat_recv)):
        expect = np.concatenate(
            [getattr(plans[sd], f"{side}_idx") for sd in pairs]
            or [np.empty(0, dtype=np.int64)]
        )
        if not np.array_equal(flat, expect):
            _fail(
                "send-table",
                f"{where}: flat_{side} is not the concatenation of the "
                f"per-pair {side} lists",
            )
        for sd in pairs:
            if not np.shares_memory(getattr(plans[sd], f"{side}_idx"), flat):
                _fail(
                    "send-table",
                    f"{where}: plan {sd[0]}->{sd[1]}'s {side}_idx is a copy, "
                    f"not a view of flat_{side}",
                )
    lo, hi = (np.repeat(base[table.seg_src + k], lens) for k in (0, 1))
    glob = table.glob_send
    if not np.array_equal(glob, table.flat_send + lo) or np.any(
        (glob < lo) | (glob >= hi)
    ):
        _fail(
            "send-table",
            f"{where}: glob_send is not flat_send inside each sender's slice "
            "of the flat field arrays (an extraction would read another "
            "partition's proxies)",
        )
    sender_seg = np.searchsorted(table.seg_src, np.arange(P + 1))
    if not (
        np.array_equal(table.sender_seg, sender_seg)
        and table.sender_off == expect_off[sender_seg].tolist()
    ):
        _fail(
            "send-table",
            f"{where}: per-sender bounds do not delimit the senders' segments",
        )
    if not np.array_equal(table.seg_bitset_bytes, (lens + 7) // 8):
        _fail("send-table", f"{where}: per-segment bitset bytes are off")
    planned = np.zeros((P, P), dtype=bool)
    for s, d in plans:
        planned[s, d] = True
    if not np.array_equal(table.planned, planned):
        _fail("send-table", f"{where}: the planned-pair matrix is off")


# ---------------------------------------------------------------------------
# FULL: post-sync proxy agreement


def check_post_sync(comm, field: str, labels) -> None:
    """After a full synchronization of ``field``, masters dominate.

    Valid after :meth:`GluonComm.bsp_sync` (or the BSP engine's per-round
    sync plan) and at BASP quiescence — *not* mid-flight, where messages
    may legitimately be in transit.
    """
    spec = comm.fields[field]
    if spec.reduce_op not in ("min", "max") or spec.reset_after_reduce:
        return  # accumulators are deliberately stale between reductions
    red = _REDUCERS[spec.reduce_op]
    reduce_plans, bcast_plans = (t.plans for t in comm._tables[field])
    strict = spec.write_at == "master"
    for (m, r), plan in bcast_plans.items():
        master_vals = labels[m][plan.send_idx]
        mirror_vals = labels[r][plan.recv_idx]
        if strict:
            bad = master_vals != mirror_vals
            kind = "agree with"
        else:
            bad = red(master_vals, mirror_vals) != master_vals
            kind = "be dominated by"
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            v = int(comm.pg.parts[m].local_to_global[plan.send_idx[i]])
            _fail(
                "post-sync-broadcast",
                f"field {field!r}: after sync, mirror of vertex {v} on "
                f"partition {r} must {kind} its master on {m} "
                f"(master={master_vals[i]!r}, mirror={mirror_vals[i]!r})",
            )
    for (r, m), plan in reduce_plans.items():
        master_vals = labels[m][plan.recv_idx]
        mirror_vals = labels[r][plan.send_idx]
        bad = red(master_vals, mirror_vals) != master_vals
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            v = int(comm.pg.parts[m].local_to_global[plan.recv_idx[i]])
            _fail(
                "post-sync-reduce",
                f"field {field!r}: after sync, master of vertex {v} on "
                f"partition {m} holds {master_vals[i]!r} but its mirror on "
                f"{r} holds the better value {mirror_vals[i]!r} "
                "(a reduce message was lost)",
            )


# ---------------------------------------------------------------------------
# FULL: batch-vs-oracle differential extraction


def differential_extract(comm, field: str, phase: str, pids: range, labels):
    """Run the batch extraction and the per-element oracle on identical
    state; require identical messages, sender by sender, and an identical
    post-state over *every* partition (a flat index that strayed out of
    its sender's slice would show in another partition's labels or bits).

    Returns the batch and leaves the batch path's post-state installed, so
    enabling the check cannot change a run's results — it can only veto
    them.
    """
    from repro.check.oracle import extract_scalar

    bits, flat = comm._dirty[field].bits, labels.flat
    pre = bits.copy(), flat.copy()
    batch = comm._extract(field, phase, pids, labels)
    post = bits.copy(), flat.copy()

    bits[:], flat[:] = pre
    ref_msgs = [extract_scalar(comm, field, phase, p, labels) for p in pids]
    ref = bits.copy(), flat.copy()
    # reinstall the batch outcome before any verdict, so a violation
    # raised below does not leave the run in the reference state
    bits[:], flat[:] = post

    where = f"field {field!r}, {phase} extraction of partitions {pids}"
    for got, want, what in zip(post, ref, ("dirty bits", "labels")):
        if not np.array_equal(got, want):
            p = np.searchsorted(comm.base, np.flatnonzero(got != want)[0], "right") - 1
            _fail(
                "extract-differential",
                f"{where}: batch and scalar paths leave different {what} "
                f"on partition {p}",
            )
    msgs = comm.messages(batch)
    for p, want_msgs in zip(pids, ref_msgs):
        _compare_messages(
            f"field {field!r}, {phase} extraction on partition {p}",
            [m for m in msgs if m.header.src == p], want_msgs,
        )
    return batch


def _compare_messages(where: str, msgs: list, ref_msgs: list) -> None:
    dsts, ref_dsts = ([m.header.dst for m in ms] for ms in (msgs, ref_msgs))
    if len(set(dsts)) != len(dsts):
        _fail(
            "extract-differential",
            f"{where}: duplicate messages for one receiver",
        )
    if dsts != ref_dsts:
        _fail(
            "extract-differential",
            f"{where}: receivers differ — batch {dsts} vs scalar {ref_dsts}",
        )
    for d, m, ref in zip(dsts, msgs, ref_msgs):
        for name in ("values", "positions", "explicit_ids"):
            a, b = getattr(m, name), getattr(ref, name)
            if (a is None) != (b is None) or (
                a is not None and not np.array_equal(a, b)
            ):
                _fail("extract-differential", f"{where}: {name} to {d} differ")
        for name in ("exchange_len", "scanned_elements"):
            if getattr(m, name) != getattr(ref, name):
                _fail(
                    "extract-differential",
                    f"{where}: {name} to {d} differs "
                    f"({getattr(m, name)} vs {getattr(ref, name)})",
                )

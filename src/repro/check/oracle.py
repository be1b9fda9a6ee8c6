"""The sync and pull oracles: what the batch and blocked paths are held to.

Production has one extraction (``GluonComm._extract``, a ``SendBatch`` per
call) and one pricer (``Router.price_batch``).  These are their
pre-vectorization references, one proxy and one message at a time: the
FULL-level :func:`repro.check.comm.differential_extract` runs
:func:`extract_scalar` against every extraction, sender by sender, and
the differential tests (``tests/test_comm_vectorized_equiv.py``,
``tests/test_comm_batch.py``) use both; :func:`pull_reference` is what
:func:`repro.la.spmv.spmv_pull` compares every result to at FULL.
Nothing else outside ``repro.check`` and ``tests/`` may call them — they
are reference implementations, not a second path.
"""

from __future__ import annotations

import numpy as np

from repro.comm.buffers import Message, MessageHeader
from repro.comm.router import BatchLegTimes

__all__ = ["extract_scalar", "price_batch_scalar", "pull_reference"]


def extract_scalar(comm, field: str, phase: str, pid: int, labels) -> list[Message]:
    """Partition ``pid``'s outgoing messages for one phase, per element.

    Semantically identical to the batch path restricted to one sender:
    same messages in plan order, same dirty bits cleared (written through
    ``bits`` directly, not ``Bitset.clear``), same accumulator resets.
    """
    spec = comm.fields[field]
    plans = comm._table(field, phase).plans
    cfg = comm.config
    part = comm.pg.parts[pid]
    lab = labels[pid]
    dirty = comm.updated[field][pid]
    out: list[Message] = []
    sent_union: list[int] = []

    # the plan dict keeps build order; a sender's messages leave in it
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


def price_batch_scalar(router, messages: list[Message]) -> BatchLegTimes:
    """Price each message through the scalar :meth:`Router.legs` /
    :meth:`Router.extraction_time` / :meth:`Router.scaled_bytes`."""
    n = len(messages)
    src = np.empty(n, dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    d2h = np.empty(n)
    inter = np.empty(n)
    h2d = np.empty(n)
    extraction = np.empty(n)
    scaled = np.empty(n)
    for i, msg in enumerate(messages):
        legs = router.legs(msg)
        src[i] = msg.header.src
        dst[i] = msg.header.dst
        d2h[i] = legs.d2h
        inter[i] = legs.inter
        h2d[i] = legs.h2d
        extraction[i] = router.extraction_time(msg)
        scaled[i] = router.scaled_bytes(msg)
    return BatchLegTimes(
        src=src, dst=dst, d2h=d2h, inter=inter, h2d=h2d,
        extraction=extraction, scaled_bytes=scaled,
    )


def pull_reference(plan, x, semiring) -> np.ndarray:
    """The pull round before the plan owned a workspace: one gather in
    the operand's dtype, combined (widened) per *edge*, one ``reduceat``."""
    return np.add.reduceat(semiring.combine(x[plan.in_nbrs], None), plan.starts)

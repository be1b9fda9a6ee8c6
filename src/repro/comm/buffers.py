"""Wire message representation and size accounting.

A message carries the values of a subset of one exchange list from one GPU
to another.  Its wire size depends on the framework's choices:

* **memoized addresses** (Gluon): the receiver knows the agreed order, so
  the payload is values only, plus a packed bitset of the order when the
  subset is partial (UO);
* **explicit addresses** (Lux): every element ships its 8-byte global ID
  next to the value, and the full shared set is sent every round.

``wire_bytes`` is what the simulator charges against PCIe and the network;
it is also what the figures' GB labels sum.

The engines never build a :class:`Message`.  One extraction — a BSP sync
step over every partition, a BASP flush of one — is one :class:`SendBatch`:
per-message columns for pricing and per-element receiver targets and
values for delivery.  ``Message`` is the per-object form the estimators,
the microbenchmark, the check oracle and tests work with;
``GluonComm.messages`` materialises a batch into it and
:func:`batch_arrays` is the adapter that lets a ``Message`` list be priced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.comm.bitset import Bitset
from repro.constants import GID_BYTES

__all__ = [
    "MessageHeader", "Message", "MessageBatch", "SendBatch", "Delivery",
    "batch_arrays", "pricing_columns",
]

#: Fixed per-message envelope (tags, field id, counts).
HEADER_BYTES = 64


@dataclass(frozen=True)
class MessageHeader:
    """Routing metadata for one message."""

    src: int  # sending GPU / partition
    dst: int  # receiving GPU / partition
    phase: str  # "reduce" | "broadcast"
    field: str  # label field name


@dataclass
class Message:
    """One proxy-synchronization message.

    Attributes
    ----------
    header:
        routing metadata.
    values:
        payload values in exchange order (possibly a filtered subset).
    positions:
        indices *into the memoized exchange list* that ``values`` covers;
        ``None`` means the full list (AS, or UO with everything updated).
    exchange_len:
        length of the full exchange list (the bitset domain under UO).
    explicit_ids:
        when addresses are not memoized (Lux), the global IDs shipped with
        the values.
    scanned_elements:
        how many proxy slots the sender's extraction kernel (prefix scan)
        had to visit to build this message — the UO overhead driver
        (Section V-B3).
    """

    header: MessageHeader
    values: np.ndarray
    positions: Optional[np.ndarray] = None
    exchange_len: int = 0
    explicit_ids: Optional[np.ndarray] = None
    scanned_elements: int = 0

    @property
    def num_elements(self) -> int:
        return len(self.values)

    def wire_bytes(self) -> int:
        """Bytes this message occupies on PCIe and the network."""
        total = HEADER_BYTES + self.values.nbytes
        if self.explicit_ids is not None:
            total += self.num_elements * GID_BYTES
        elif self.positions is not None:
            # memoized subset => packed bitset over the exchange order
            total += Bitset.packed_nbytes(self.exchange_len)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        h = self.header
        return (
            f"<Message {h.phase} {h.src}->{h.dst} field={h.field} "
            f"n={self.num_elements} {self.wire_bytes()}B>"
        )


class MessageBatch(NamedTuple):
    """The per-message columns :meth:`repro.comm.router.Router.price_batch`
    reads — of a :class:`SendBatch` (which carries the same names), of
    several merged by :func:`pricing_columns`, or of a ``Message`` list
    through :func:`batch_arrays`.
    """

    src: np.ndarray  # int64 sender pid per message
    dst: np.ndarray  # int64 receiver pid per message
    wire_bytes: np.ndarray  # float64 unscaled wire bytes per message
    num_elements: np.ndarray  # float64 payload element count per message
    scanned_elements: np.ndarray  # float64 UO extraction scan length


@dataclass(slots=True, eq=False)
class SendBatch:
    """Every message one extraction produced, as a struct of arrays.

    Message ``k`` goes ``src[k] -> dst[k]`` over exchange-table segment
    ``seg[k]`` and carries elements ``offsets[k]:offsets[k + 1]`` of
    ``targets`` (receiver-local proxy ids) and ``values``, in exchange
    order; messages are in sender order, then plan order.  ``hits`` are
    the elements' positions in the flat exchange table (``None`` when
    every segment ships whole, as under AS) — only the materialiser needs
    them.  The three byte/count columns are integers; pricing scales them.
    """

    field: str
    phase: str
    seg: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    num_elements: np.ndarray
    scanned_elements: np.ndarray
    wire_bytes: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    values: np.ndarray
    hits: Optional[np.ndarray]

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def empty(cls, field: str, phase: str, dtype) -> "SendBatch":
        """The batch of an extraction that had nothing to send.  Its
        arrays are read-only: ``GluonComm`` hands the same instance to
        every empty extraction of a (field, phase), so an in-place write
        must raise rather than reach the next caller."""
        e = np.empty(0, dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        values = np.empty(0, dtype=dtype)
        for a in (e, offsets, values):
            a.setflags(write=False)
        return cls(field, phase, e, e, e, e, e, e, offsets, e, values, None)


class Delivery(NamedTuple):
    """What an apply reads of messages that did not arrive as one batch:
    everything one BASP receiver drained for a (field, phase), its
    records concatenated in arrival order."""

    dst: int  # the receiver
    targets: np.ndarray  # receiver-local proxy ids
    values: np.ndarray


def pricing_columns(batches: list[SendBatch]) -> MessageBatch:
    """One pricing input for several batches (a BASP flush mixes fields
    and phases), messages in list order."""
    return MessageBatch(
        *(
            np.concatenate([getattr(b, name) for b in batches])
            for name in MessageBatch._fields
        )
    )


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def batch_arrays(messages: list[Message]) -> MessageBatch:
    """Collect per-message scalars into arrays, one attribute pass total.

    An empty batch returns explicitly empty arrays so callers never feed
    shape-dependent NumPy edge cases (empty ``np.add.at`` targets, empty
    reductions) from an empty sync step.
    """
    if not messages:
        return MessageBatch(
            _EMPTY_I64, _EMPTY_I64, _EMPTY_F64, _EMPTY_F64, _EMPTY_F64
        )
    n = len(messages)
    src = np.empty(n, dtype=np.int64)
    dst = np.empty(n, dtype=np.int64)
    wire = np.empty(n, dtype=np.float64)
    elems = np.empty(n, dtype=np.float64)
    scanned = np.empty(n, dtype=np.float64)
    for i, m in enumerate(messages):
        src[i] = m.header.src
        dst[i] = m.header.dst
        wire[i] = m.wire_bytes()
        elems[i] = m.num_elements
        scanned[i] = m.scanned_elements
    return MessageBatch(src, dst, wire, elems, scanned)

"""Dense bitset used for update tracking (the "UO" optimization).

Gluon tracks which proxies were updated each round with device-side bitsets;
the wire format packs one bit per element of the memoized exchange order.
We store an unpacked boolean array for fast NumPy indexing; the packed
wire form is only ever priced, never built: :meth:`Bitset.packed_nbytes`
is its size (8 bits per byte) in the wire accounting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Bitset"]


class Bitset:
    """Fixed-size bitset over ``size`` elements."""

    __slots__ = ("bits",)

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"bitset size must be non-negative, got {size}")
        self.bits = np.zeros(size, dtype=bool)

    def view(self, lo: int, hi: int) -> "Bitset":
        """The bitset over bits ``lo:hi`` of this one, sharing its storage:
        a bit set or cleared through either is seen by both."""
        sub = Bitset.__new__(Bitset)
        sub.bits = self.bits[lo:hi]
        return sub

    @property
    def size(self) -> int:
        return len(self.bits)

    def set(self, idx) -> None:
        """Set the given indices (array-like or scalar)."""
        self.bits[idx] = True

    def clear(self, idx=None) -> None:
        """Clear the given indices, or everything when ``idx`` is None."""
        if idx is None:
            self.bits[:] = False
        else:
            self.bits[idx] = False

    def count(self) -> int:
        return int(self.bits.sum())

    def any(self) -> bool:
        return bool(self.bits.any())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    # ------------------------------------------------------------------ #
    # packed wire size
    # ------------------------------------------------------------------ #
    @staticmethod
    def packed_nbytes(num_elements):
        """Wire bytes of a packed bitset over ``num_elements`` bits.

        A scalar gives a plain Python ``int`` (NumPy integers would leak
        into the JSON-serialized wire accounting); an array of domains
        gives the int64 array of their sizes.  Negative domains are
        rejected either way.
        """
        if isinstance(num_elements, np.ndarray):
            if (num_elements < 0).any():
                raise ValueError("bit counts must be non-negative")
            return (num_elements.astype(np.int64) + 7) // 8
        n = int(num_elements)
        if n < 0:
            raise ValueError(f"bit count must be non-negative, got {n}")
        return (n + 7) // 8

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitset):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Bitset {self.count()}/{self.size} set>"

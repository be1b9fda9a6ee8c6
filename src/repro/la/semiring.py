"""The semiring catalog: (add-monoid, multiply) pairs with the exact
dtype contract the original loop kernels established.

A GraphBLAS semiring is ``(add, mult)``: ``mult`` combines an edge's
source value with the edge weight, ``add`` reduces the combined values
arriving at each destination.  The catalog below covers the three the
apps need (GraphBLAST ships the same core set):

========== =========== ========== ==============================
name       add         mult       app
========== =========== ========== ==============================
min-plus   min / INF   x + w      bfs (w=1, implicit), sssp
min-first  min / INF   x          cc label propagation
plus-times add / 0     x * w      pr (pull gather and push delta)
========== =========== ========== ==============================

``combine`` is deliberately *not* a clean mathematical map: it encodes
those loops' widen-then-narrow casts (candidates computed in int64,
stored back as uint32; pull gathers promoted to float64) because the
contract is bit-identity with what they computed
(``tests/cases/kernel_golden.json``), casts and all.

Apps and kernels look semirings up through this module's attributes at
call time (``semiring.MIN_PLUS``, not a local alias bound at import) so
the fuzzer's planted semiring-identity mutation is visible to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.idset import SCATTER_UFUNCS

__all__ = [
    "Monoid",
    "Semiring",
    "MIN_PLUS",
    "MIN_FIRST",
    "PLUS_TIMES",
]

#: sentinel identity: the dtype's largest representable value
MAXVAL = "maxval"


@dataclass(frozen=True)
class Monoid:
    """A commutative monoid: the reduction half of a semiring."""

    #: scatter op name (:data:`repro.idset.SCATTER_UFUNCS`)
    op: str
    #: identity element; the :data:`MAXVAL` sentinel resolves per dtype
    identity_value: object

    def identity(self, dtype):
        """The identity as a scalar of ``dtype``."""
        dt = np.dtype(dtype)
        if self.identity_value == MAXVAL:
            if dt.kind in "iu":
                return dt.type(np.iinfo(dt).max)
            return dt.type(np.inf)
        return dt.type(self.identity_value)

    @property
    def ufunc(self):
        """The numpy ufunc realizing ``op``."""
        return SCATTER_UFUNCS[self.op]


@dataclass(frozen=True)
class Semiring:
    """An add-monoid plus a multiply, with the cast contract.

    ``mult`` names the edge combine: ``"plus"`` (x + w, weightless
    edges count 1), ``"first"`` (x, weight ignored), ``"times"``
    (x * w, weightless edges count 1).

    ``accum_dtype`` is the dtype ``combine`` computes/returns in (widen
    before reducing); ``cast_to_out`` narrows the result to the output
    vector's dtype afterwards (``.astype(np.uint32)`` before the min
    scatter).
    """

    name: str
    add: Monoid
    mult: str
    accum_dtype: object = None
    cast_to_out: bool = False

    def combine(self, xv: np.ndarray, w, out_dtype=None) -> np.ndarray:
        """Combine gathered source values ``xv`` with edge weights ``w``
        (``None`` for weightless edges).  Never writes ``xv``."""
        return self.combine_widened(self.widen(xv), w, out_dtype)

    def widen(self, xv: np.ndarray) -> np.ndarray:
        """:meth:`combine`'s first cast: ``"plus"`` computes in the
        accumulator dtype (a fresh copy), the others in ``xv``'s own.
        Elementwise, so it commutes with a gather or an ``np.repeat``: a
        kernel widens per vertex and spreads to edges afterwards."""
        if self.mult == "plus":
            return xv.astype(self.accum_dtype or np.int64)
        return xv

    def combine_widened(self, c: np.ndarray, w, out_dtype=None) -> np.ndarray:
        """:meth:`combine` past :meth:`widen`.  ``"plus"`` adds **in
        place**: ``c`` is the caller's own temporary."""
        if self.mult == "plus":
            # the weights cast to the accumulator on the fly: two
            # per-edge temporaries fewer than ``c + w.astype(acc)``
            np.add(c, 1 if w is None else w, out=c, dtype=c.dtype,
                   casting="unsafe")
        elif self.mult == "times":
            if w is not None:
                c = c * w
            if self.accum_dtype is not None and c.dtype != self.accum_dtype:
                c = c.astype(self.accum_dtype)
        elif self.mult != "first":
            raise ConfigurationError(f"unknown semiring mult {self.mult!r}")
        if self.cast_to_out and out_dtype is not None and c.dtype != out_dtype:
            c = c.astype(out_dtype)
        return c


MIN_PLUS = Semiring(
    "min-plus", Monoid("min", MAXVAL), "plus",
    accum_dtype=np.int64, cast_to_out=True,
)
MIN_FIRST = Semiring("min-first", Monoid("min", MAXVAL), "first")
PLUS_TIMES = Semiring(
    "plus-times", Monoid("add", 0.0), "times", accum_dtype=np.float64
)

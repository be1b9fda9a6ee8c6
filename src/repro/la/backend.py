"""The array-backend protocol: the narrow waist under the LA kernels.

A backend supplies exactly three primitives — ``scatter_inplace``,
``scatter`` (the change-tracking wrapper) and ``segment_sum`` — and the
SpMV/SpMSpV kernels in :mod:`repro.la.spmv` are written against nothing
else.  Swapping a backend must be *bit-identical*: the differential
suite (``tests/test_la_backend_equiv.py``) certifies a backend by
replaying every app on every fuzz graph shape against the numpy
reference and the legacy loop path.

Bit-identity contract (what an implementation must preserve):

* ``min``/``max``/``or`` scatters are order-independent, so any
  evaluation order is fine;
* ``add`` scatters must apply duplicates **sequentially in edge order**
  with unbuffered read-modify-write (``np.add.at`` semantics) — a
  parallel or tree-shaped reduction rounds differently on floats;
* ``segment_sum`` must match ``np.add.reduceat``'s *pairwise* float
  summation.  A naive sequential loop does NOT reproduce it bitwise,
  which is why the numba backend deliberately delegates this one
  primitive back to numpy instead of jitting it.

Optional backends follow the guarded-import idiom (dgNN does the same
for its CUDA extension): the class is always registered so tooling can
name it, but ``available`` is False when the import fails and
:func:`get_backend` raises :class:`~repro.errors.UnsupportedFeatureError`
— which the sweep runtime already records as a missing point rather
than a crash.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import ConfigurationError, UnsupportedFeatureError
from repro.idset import SCATTER_UFUNCS, scatter_changed

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "NumbaBackend",
    "TorchBackend",
    "BACKENDS",
    "get_backend",
    "available_backends",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    _HAS_NUMBA = True
except ImportError:
    numba = None
    _HAS_NUMBA = False

try:  # pragma: no cover - exercised only where torch is installed
    import torch

    _HAS_TORCH = True
except ImportError:
    torch = None
    _HAS_TORCH = False


class ArrayBackend:
    """Base class / protocol for LA array backends."""

    #: registry key (``get_backend(name)``)
    name = "abstract"
    #: importable and usable in this process?
    available = False
    #: human-readable reason when ``available`` is False
    why_unavailable = "abstract base"

    # -------------------------------------------------------------- #
    def scatter_inplace(
        self,
        op: str,
        out: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """``out[t] = op(out[t], v)`` with duplicate targets, in place.

        No change tracking — this is the primitive the pull direction
        uses to fill candidate buffers.
        """
        raise NotImplementedError

    def segment_sum(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Sum ``values`` over the segments beginning at ``starts``
        (``np.add.reduceat`` semantics, including pairwise float
        summation; no segment may be empty)."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    def scatter(
        self,
        op: str,
        out: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        """Scatter with change tracking; returns the unique target IDs
        whose entry changed (for ``add``: every unique target).

        The changed-set extraction is :func:`repro.idset.scatter_changed`,
        the loop kernels' own ``scatter_min`` / ``scatter_add``; only the
        in-place scatter is this backend's."""
        return scatter_changed(
            op, out, targets, values, apply=partial(self.scatter_inplace, op)
        )


class NumpyBackend(ArrayBackend):
    """The reference backend: plain numpy ``ufunc.at`` / ``reduceat``.

    By construction this is the loop path's own arithmetic — the other
    backends are certified against it.
    """

    name = "numpy"
    available = True
    why_unavailable = ""

    def scatter_inplace(self, op, out, targets, values):
        try:
            ufunc = SCATTER_UFUNCS[op]
        except KeyError:
            raise ConfigurationError(
                f"unknown scatter op {op!r}; known: {sorted(SCATTER_UFUNCS)}"
            ) from None
        ufunc.at(out, targets, values)

    def segment_sum(self, values, starts):
        return np.add.reduceat(values, starts)


if _HAS_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)
    def _nb_scatter_min(out, targets, values):
        for i in range(len(targets)):
            t = targets[i]
            if values[i] < out[t]:
                out[t] = values[i]

    @numba.njit(cache=True)
    def _nb_scatter_max(out, targets, values):
        for i in range(len(targets)):
            t = targets[i]
            if values[i] > out[t]:
                out[t] = values[i]

    @numba.njit(cache=True)
    def _nb_scatter_add(out, targets, values):
        # sequential, unbuffered, edge order: np.add.at semantics exactly
        for i in range(len(targets)):
            out[targets[i]] += values[i]

    @numba.njit(cache=True)
    def _nb_scatter_or(out, targets, values):
        for i in range(len(targets)):
            t = targets[i]
            out[t] = out[t] or values[i]


class NumbaBackend(NumpyBackend):
    """JIT-compiled scatter loops (optional; falls back gracefully).

    ``min``/``max``/``or`` are order-independent and ``add`` keeps
    ``np.add.at``'s sequential edge order, so every scatter is
    bit-identical to the numpy reference.  ``segment_sum`` is
    *inherited* from :class:`NumpyBackend` on purpose: ``reduceat``'s
    pairwise float summation cannot be reproduced by a sequential jitted
    loop (see the module docstring).
    """

    name = "numba"
    available = _HAS_NUMBA
    why_unavailable = "" if _HAS_NUMBA else "numba is not installed"

    def scatter_inplace(self, op, out, targets, values):
        if op == "min":
            _nb_scatter_min(out, targets, values)
        elif op == "max":
            _nb_scatter_max(out, targets, values)
        elif op == "add":
            _nb_scatter_add(out, targets, values)
        elif op == "or":
            _nb_scatter_or(out, targets, values)
        else:
            raise ConfigurationError(
                f"unknown scatter op {op!r}; known: {sorted(SCATTER_UFUNCS)}"
            )


class TorchBackend(ArrayBackend):
    """Torch backend stub: registered so sweeps can *name* it, skipped
    when torch is absent (the dgNN guarded-import idiom).

    The implementation below operates on zero-copy CPU tensor views of
    the numpy arrays.  It has NOT been certified by the differential
    suite in a torch-equipped environment yet — the suite's torch
    parameters skip when the import fails, and must pass before any
    study sweep trusts this backend (see docs/kernels.md).
    """

    name = "torch"
    available = _HAS_TORCH
    why_unavailable = "" if _HAS_TORCH else "torch is not installed"

    _REDUCE = {"min": "amin", "max": "amax", "add": "sum", "or": "amax"}

    def scatter_inplace(self, op, out, targets, values):
        # pragma: no cover - exercised only where torch is installed
        t_out = torch.from_numpy(out)
        t_idx = torch.from_numpy(np.ascontiguousarray(targets))
        t_val = torch.from_numpy(np.ascontiguousarray(values)).to(t_out.dtype)
        t_out.scatter_reduce_(
            0, t_idx, t_val, reduce=self._REDUCE[op], include_self=True
        )

    def segment_sum(self, values, starts):
        # reduceat's pairwise summation has no torch equivalent; delegate
        # (same reasoning as the numba backend)
        return np.add.reduceat(values, starts)


#: registry: every backend is *named* here even when unavailable
BACKENDS: dict[str, ArrayBackend] = {
    b.name: b for b in (NumpyBackend(), NumbaBackend(), TorchBackend())
}


def available_backends() -> list[str]:
    """Names of the backends usable in this process."""
    return [name for name, b in BACKENDS.items() if b.available]


def get_backend(name: str | None = None) -> ArrayBackend:
    """Resolve a backend by name.

    ``None`` / ``"auto"`` picks the fastest available certified backend
    (numba when importable, else the numpy reference).  A known-but-
    unavailable name raises :class:`UnsupportedFeatureError` so sweeps
    record the cell as a missing point; an unknown name is a
    :class:`ConfigurationError` (a bug in the caller).
    """
    if name is None or name == "auto":
        return BACKENDS["numba"] if BACKENDS["numba"].available \
            else BACKENDS["numpy"]
    try:
        backend = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown array backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    if not backend.available:
        raise UnsupportedFeatureError(
            f"array backend {name!r} unavailable: {backend.why_unavailable}"
        )
    return backend

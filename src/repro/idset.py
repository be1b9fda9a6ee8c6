"""Sorted-unique vertex-ID sets over ``[0, n)`` and the changed-set of a
duplicate-tolerant scatter.

Every frontier, touched-set and candidate merge in the simulator asks
the same question — *which local IDs occur in this stream?* — and the
answer lives in ``[0, n)`` with ``n`` the partition's vertex count.
``np.unique`` answers it with a sort of the whole stream; a flag array
answers it in O(n + len(ids)) without one (Gunrock's filter step and
GraphBLAST's dense vector form do the same on a GPU).  Which side is
cheaper depends only on how long the stream is against ``n``, so the
choice is made here, once, from the two lengths.

Leaf module on purpose: every layer from ``repro.graph`` up needs the
primitive, the vertex programs included.

Bit-identity contract (docs/kernels.md): outputs are sorted, unique,
of the input ID dtype, and independent of which branch ran.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DENSE_DIVISOR", "SCATTER_UFUNCS", "unique_ids", "as_selector",
           "merge_touched", "scatter_changed"]

#: an ID stream takes the sort-free flag-array path when
#: ``len(ids) * DENSE_DIVISOR >= n``.  Measured on the real streams of
#: three benchmark workloads (docs/performance.md, "Compute kernels"):
#: the two paths tie for streams of ``n/128 .. n/64`` IDs, the sort wins
#: below (by up to 1.5x, on microseconds), the flag array above — 1.5x
#: at ``n/32``, 25x once the stream is as long as ``n``.
DENSE_DIVISOR = 64

#: scatter op name -> the numpy ufunc whose ``.at`` defines its semantics
SCATTER_UFUNCS = {
    "min": np.minimum,
    "max": np.maximum,
    "add": np.add,
    "or": np.logical_or,
}

#: scatter op name -> "entry changed" comparison of new against old.
#: ``add`` is absent: it reports every touched entry.
_CHANGED = {"min": np.less, "max": np.greater, "or": np.not_equal}

_EMPTY = np.empty(0, dtype=np.int64)


def _is_dense(num_ids: int, n: int) -> bool:
    return num_ids * DENSE_DIVISOR >= n


def as_selector(ids: np.ndarray):
    """The cheapest index equal to the sorted-unique ``ids``: the
    ``slice`` they form when consecutive (reads are views, no gather),
    else ``ids`` itself.  The data picks."""
    if len(ids) and int(ids[-1]) - int(ids[0]) + 1 == len(ids):
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(ids)`` for IDs known to lie in ``[0, n)``."""
    if not _is_dense(len(ids), n):
        return np.unique(ids)
    flags = np.zeros(n, dtype=bool)
    flags[ids] = True
    return np.flatnonzero(flags).astype(ids.dtype, copy=False)


def merge_touched(parts: list[np.ndarray], n: int) -> np.ndarray:
    """Union of per-block touched/changed ID arrays (IDs in ``[0, n)``),
    sorted unique.

    One block passes through untouched (it is already sorted unique),
    keeping the single-block fast path allocation-identical to the
    unblocked kernels.
    """
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return unique_ids(np.concatenate(parts), n)


def scatter_changed(
    op: str,
    labels: np.ndarray,
    targets: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """``labels[t] = op(labels[t], v)`` with duplicate targets, in place
    (the op's ``ufunc.at``); returns the sorted unique target IDs whose
    entry changed (``add``: every touched target)."""
    if op not in SCATTER_UFUNCS:
        raise ConfigurationError(
            f"unknown scatter op {op!r}; known: {sorted(SCATTER_UFUNCS)}"
        )
    if len(targets) == 0:
        return _EMPTY
    apply = SCATTER_UFUNCS[op].at
    n = len(labels)
    if op == "add":
        apply(labels, targets, values)
        return unique_ids(targets, n)
    changed = _CHANGED[op]
    if op != "or" and _is_dense(len(targets), n):
        # copy-and-compare: an untouched entry never compares strictly
        # less/greater than itself, so no touched set is needed at all
        # ("or" compares with !=, which NaN would satisfy untouched)
        old = labels.copy()
        apply(labels, targets, values)
        return np.flatnonzero(changed(labels, old)).astype(
            targets.dtype, copy=False
        )
    touched = unique_ids(targets, n)
    old = labels[touched]
    apply(labels, targets, values)
    return touched[changed(labels[touched], old)]

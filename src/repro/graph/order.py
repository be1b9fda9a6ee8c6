"""The one place edge order is decided.

Every CSR build needs its edges in ``np.lexsort((dst, src))`` order: by
source, then destination, parallel edges in input order so a weight stays
with its edge.  :func:`order_edges` produces it on the packed key
``src * |V| + dst`` with the cheapest tool the data admits — a monotonicity
pass when the input is already ordered, a value sort when there is no
payload to carry, a stable key sort otherwise — and falls back to
``np.lexsort`` only when ``|V|**2`` overflows the key.  Callers cannot choose.
"""

from __future__ import annotations

import numpy as np

__all__ = ["order_edges"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _stable_sort(key: np.ndarray, span: int, payload: np.ndarray) -> np.ndarray:
    """Sort ``key`` (values in ``[0, span)``) stably in place; return
    ``payload`` permuted alike."""
    m = len(key)
    if span * m > _INT64_MAX:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        return payload[order]
    pos = np.arange(m)
    key *= m
    key += pos
    key.sort()  # (key, position) is a total order: any sort is stable
    np.divmod(key, m, out=(key, pos))
    return payload[pos]


def _first_of_runs(differs: np.ndarray, *arrays):
    """Each array (``None`` passes through) without the elements that repeat
    their predecessor; ``differs[i]`` says element ``i + 1`` does not."""
    keep = np.ones(len(arrays[0]), dtype=bool)
    keep[1:] = differs
    return [a if a is None else a[keep] for a in arrays]


def order_edges(src, dst, num_vertices: int, weights=None, dedup: bool = False):
    """``(src, dst, weights)`` as ``np.lexsort((dst, src))`` would permute them.

    ``src``/``dst`` hold integers in ``[0, num_vertices)`` (callers validate).
    ``dedup`` keeps the first edge of each ``(src, dst)`` run.  Already-ordered
    input comes back as the same objects — copy before freezing them.

    Every temporary here is |E|-sized and freshly faulted memory is the
    slowest thing a build touches, so the key is sorted, deduplicated and
    decoded in place rather than through new arrays.
    """
    n = max(int(num_vertices), 1)
    if n * n > _INT64_MAX:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if weights is not None:
            weights = weights[order]
        if dedup:
            differs = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst, weights = _first_of_runs(differs, src, dst, weights)
        return src, dst, weights
    key = np.multiply(src, n, dtype=np.int64)
    key += dst
    if np.any(key[1:] < key[:-1]):
        if weights is None:
            key.sort()
        else:
            weights = _stable_sort(key, n * n, weights)
    elif not dedup:
        return src, dst, weights
    if dedup:
        key, weights = _first_of_runs(key[1:] != key[:-1], key, weights)
    src, dst = np.divmod(key, n, out=(key, np.empty_like(key)))
    return src, dst, weights

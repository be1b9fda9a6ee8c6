"""The one place edge order is decided and a CSR is assembled from it.

Every CSR build needs its edges in ``np.lexsort((dst, src))`` order: by
source, then destination, parallel edges in input order so a weight stays
with its edge.  It is produced on the packed key ``src * |V| + dst`` with the
cheapest tool the data admits — a blockwise monotonicity pass when the input
is already ordered, a value sort when there is no payload to carry, a stable
key sort otherwise — and falls back to ``np.lexsort`` only when ``|V|**2``
overflows the key.  Callers cannot choose.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EID_DTYPE, vid_dtype_for

__all__ = ["ascending", "count_ids", "csr_arrays", "order_edges", "symmetric_csr"]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: elements per block of a streaming pass over edge arrays: a check, a count
#: or a compaction costs O(block) anonymous memory, not O(|E|)
SCAN_BLOCK = 1 << 19


def _blocks(m: int):
    return ((lo, min(lo + SCAN_BLOCK, m)) for lo in range(0, m, SCAN_BLOCK))


def _pack(src, dst, n: int, out=None) -> np.ndarray:
    key = np.multiply(src, n, out=out, dtype=np.int64)
    key += dst
    return key


def ascending(major, minor=None, n: int = 0) -> bool:
    """Whether the non-negative ``major * n + minor`` (``major`` alone
    without ``minor``) never decreases, checked a block at a time."""
    last = -1
    for lo, hi in _blocks(len(major)):
        key = major[lo:hi] if minor is None else _pack(major[lo:hi], minor[lo:hi], n)
        if key[0] < last or np.any(key[1:] < key[:-1]):
            return False
        last = key[-1]
    return True


def count_ids(ids, n: int) -> np.ndarray:
    """``np.bincount(ids, minlength=n)`` (int64), a block at a time."""
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in _blocks(len(ids)):
        counts += np.bincount(ids[lo:hi], minlength=n)
    return counts


def _stable_sort(key: np.ndarray, span: int, payload: np.ndarray) -> np.ndarray:
    """Sort ``key`` (values in ``[0, span)``) stably in place; return
    ``payload`` permuted alike.  A shorter ``payload`` repeats: position
    ``i`` reads ``payload[i % len(payload)]``."""
    m = len(key)
    if span * m > _INT64_MAX:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        return np.take(payload, order, mode="wrap")
    key *= m
    for lo, hi in _blocks(m):
        key[lo:hi] += np.arange(lo, hi)
    key.sort()  # (key, position) is a total order: any sort is stable
    out = np.empty(m, dtype=payload.dtype)
    for lo, hi in _blocks(m):
        pos = np.empty(hi - lo, dtype=np.int64)
        np.divmod(key[lo:hi], m, out=(key[lo:hi], pos))
        np.take(payload, pos, mode="wrap", out=out[lo:hi])
    return out


def _sort(key: np.ndarray, n: int, weights, dedup: bool, ordered: bool = False):
    """``key`` sorted in place, under ``dedup`` without the elements that
    repeat their predecessor (compacted a block at a time: a kept element
    only moves left), and the ``weights`` it owns alike."""
    if not ordered:
        if weights is None:
            key.sort()
        else:
            weights = _stable_sort(key, n * n, weights)
    if not dedup:
        return key, weights
    k, last = 0, -1
    for lo, hi in _blocks(len(key)):
        block = key[lo:hi]
        keep = np.concatenate(([block[0] != last], block[1:] != block[:-1]))
        last, kept = block[-1], block[keep]
        if weights is not None:
            weights[k : k + len(kept)] = weights[lo:hi][keep]
        key[k : k + len(kept)] = kept
        k += len(kept)
    if weights is not None and k < len(weights):
        weights = weights[:k].copy()  # the graph keeps no dropped slots
    return key[:k], weights


def _sorted_key(src, dst, n: int, weights, dedup: bool):
    """The packed key of the edges in order in a buffer of its own, and the
    weights alike; ``(None, weights)`` when there is nothing to do."""
    ordered = ascending(src, dst, n)
    if ordered and not dedup:
        return None, weights
    if ordered and weights is not None:
        weights = weights.copy()  # compacted in place
    return _sort(_pack(src, dst, n), n, weights, dedup, ordered)


def _csr_of_key(key: np.ndarray, weights, num_vertices: int):
    """Decode a sorted key: offsets by search, destinations in place."""
    n = max(num_vertices, 1)
    indptr = np.searchsorted(key, np.arange(num_vertices + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return indptr, key.astype(vid_dtype_for(num_vertices)), weights


def order_edges(src, dst, num_vertices: int, weights=None, dedup: bool = False):
    """``(src, dst, weights)`` as ``np.lexsort((dst, src))`` would permute them.

    ``src``/``dst`` hold integers in ``[0, num_vertices)`` (callers validate).
    ``dedup`` keeps the first edge of each ``(src, dst)`` run.  Already-ordered
    input comes back as the same objects — copy before freezing them.
    """
    n = max(int(num_vertices), 1)
    if n * n > _INT64_MAX:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        weights = None if weights is None else weights[order]
        if dedup:
            keep = np.ones(len(src), dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
            weights = None if weights is None else weights[keep]
        return src, dst, weights
    key, weights = _sorted_key(src, dst, n, weights, dedup)
    if key is None:
        return src, dst, weights
    src, dst = np.divmod(key, n, out=(key, np.empty_like(key)))
    return src, dst, weights


def csr_arrays(src, dst, num_vertices: int, weights=None, dedup: bool = False):
    """``(indptr, indices, weights)`` of the edges in :func:`order_edges`
    order, never aliasing the caller's arrays.  The key is sorted, deduped
    and decoded in the one buffer it was packed in; ordered input costs
    O(block) beyond the arrays returned."""
    num_vertices = int(num_vertices)
    n = max(num_vertices, 1)
    if n * n <= _INT64_MAX:
        key, w = _sorted_key(src, dst, n, weights, dedup)
        if key is not None:
            return _csr_of_key(key, w, num_vertices)
    else:
        src, dst, w = order_edges(src, dst, num_vertices, weights, dedup)
    indptr = np.zeros(num_vertices + 1, dtype=EID_DTYPE)
    np.cumsum(count_ids(src, num_vertices), out=indptr[1:])
    if w is not None and w is weights:
        w = w.copy()  # nothing was permuted: this is the caller's buffer
    return indptr, dst.astype(vid_dtype_for(num_vertices)), w


def symmetric_csr(graph):
    """:func:`csr_arrays` of a CSR graph's ``[src; dst] -> [dst; src]`` with
    ``dedup`` (a reciprocal pair keeps its forward edge's weight), the key
    packed straight from the CSR and the weights read as ``np.take(weights,
    pos, mode="wrap")`` — ``[weights; weights][pos]`` without the copy."""
    indices, weights, num_vertices = graph.indices, graph.weights, graph.num_vertices
    n, m, src = max(num_vertices, 1), len(indices), graph.edge_sources()
    if n * n > _INT64_MAX:
        w2 = None if weights is None else np.concatenate([weights, weights])
        return csr_arrays(np.concatenate([src, indices]),
                          np.concatenate([indices, src]), num_vertices, w2, True)
    key = np.empty(2 * m, dtype=np.int64)
    _pack(src, indices, n, out=key[:m])
    _pack(indices, src, n, out=key[m:])
    del src  # gone before the sort's peak
    return _csr_of_key(*_sort(key, n, weights, dedup=True), num_vertices)

"""Small shared utilities: seeded RNG handling and array helpers."""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_from_seed",
    "blocked_ranges",
    "balanced_prefix_split",
    "grid_shape",
]


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def blocked_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal ranges.

    The first ``n % parts`` ranges get one extra element, matching the usual
    blocked decomposition of owner-computes partitioners.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(n, parts)
    out: list[tuple[int, int]] = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def balanced_prefix_split(weights: np.ndarray, parts: int) -> np.ndarray:
    """Split a weight array into contiguous chunks with near-equal weight sums.

    Returns ``parts + 1`` boundary indices ``b`` such that chunk ``p`` is
    ``weights[b[p]:b[p+1]]``.  This is the edge-balanced vertex assignment at
    the heart of the IEC/OEC/CVC policies: ``weights`` is the per-vertex
    (in/out) degree and the split balances edges, not vertices.

    The implementation is a vectorized prefix-sum + searchsorted; no Python
    loop over vertices.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    n = len(weights)
    if n == 0:
        return np.zeros(parts + 1, dtype=np.int64)
    csum = np.cumsum(weights, dtype=np.float64)
    total = csum[-1]
    if total == 0:
        # All-zero weights: fall back to a blocked split over vertices.
        return np.asarray(
            [r[0] for r in blocked_ranges(n, parts)] + [n], dtype=np.int64
        )
    targets = total * np.arange(1, parts, dtype=np.float64) / parts
    cuts = np.searchsorted(csum, targets, side="left")
    # snap each cut to whichever side of the target is closer in weight
    lo = np.where(cuts > 0, csum[np.maximum(cuts - 1, 0)], 0.0)
    hi = csum[np.minimum(cuts, n - 1)]
    cuts = np.where(
        np.abs(hi - targets) <= np.abs(targets - lo), cuts + 1, cuts
    )
    cuts = np.clip(cuts, 0, n)
    bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
    # Enforce monotonicity (heavy single vertices can collapse ranges).
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


def grid_shape(parts: int) -> tuple[int, int]:
    """Factor ``parts`` into the most square ``(rows, cols)`` grid, rows >= cols.

    This mirrors Gluon's CVC grid choice: for 8 hosts the paper shows a
    4 x 2 grid; for perfect squares the grid is square.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    cols = int(np.sqrt(parts))
    while cols > 1 and parts % cols != 0:
        cols -= 1
    rows = parts // cols
    if rows < cols:
        rows, cols = cols, rows
    return rows, cols

"""The one weighted sampler under the generators.

``Generator.choice`` with a ``p`` vector draws one uniform per sample and
binary-searches the normalized CDF of ``p`` for each — with a 40 k-entry
CDF and 1.4 M *random* needles every probe misses the cache, and that
search was 80 % of ``webcrawl``.  :class:`WeightedSampler` keeps the same
CDF and the same uniforms and adds a guide table over the CDF, so almost
every draw is one table read; it returns what ``choice`` returns, draw for
draw, and leaves the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.constants import vid_dtype_for

__all__ = ["WeightedSampler"]

#: Guide buckets per category, rounded up to a power of two.  At most one
#: bucket in this many straddles a CDF step and falls back to a search.
GUIDE_BUCKETS_PER_CATEGORY = 16
#: Uniforms per block: the temporaries of a draw stay cache-sized whatever
#: the sample count.  ``random(a)`` then ``random(b)`` is the stream of
#: ``random(a + b)``, so blocking does not move a draw.
_BLOCK = 1 << 16


class WeightedSampler:
    """``Generator.choice`` over ``len(p)`` categories weighted by ``p``,
    built once per weight vector.

    The guide table holds, for ``K`` equal buckets of ``[0, 1)``,
    ``guide[b] = cdf.searchsorted(b / K, side="right")``.  ``K`` is a power
    of two, so a uniform's bucket ``floor(u * K)`` and the bucket bounds
    ``b / K`` are exact floats; a draw whose bucket has ``guide[b] ==
    guide[b + 1]`` has no CDF step inside and *is* ``guide[b]``, the rest
    are searched as ``choice`` searches them.
    """

    def __init__(self, p):
        p = np.ascontiguousarray(p, dtype=np.float64)
        # the conditions and messages of Generator.choice
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        total = p.sum()
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if np.any(p < 0):
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        buckets = 1 << (len(p) * GUIDE_BUCKETS_PER_CATEGORY - 1).bit_length()
        self._buckets = buckets
        # guide[b] = #{i: cdf[i] <= b / K} = #{i: ceil(cdf[i] * K) <= b},
        # counted instead of searched (cdf * K is exact, so is the ceil)
        self._guide = np.cumsum(
            np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1),
            dtype=vid_dtype_for(len(p)),
        )

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` category indices (int64), consuming ``rng`` as
        ``rng.choice`` does: one uniform per draw, in order."""
        out = np.empty(size, dtype=np.int64)
        cdf, guide, buckets = self._cdf, self._guide, self._buckets
        for start in range(0, size, _BLOCK):
            u = rng.random(min(_BLOCK, size - start))
            bucket = (u * buckets).astype(np.intp)
            block = out[start : start + len(u)]
            first = guide[bucket]
            block[:] = first
            bucket += 1
            straddles = np.flatnonzero(first != guide[bucket])
            block[straddles] = cdf.searchsorted(u[straddles], side="right")
        return out

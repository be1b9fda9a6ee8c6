"""Generic push/pull direction selection from frontier density.

Gunrock's direction-optimized traversal (Beamer's bottom-up BFS): when
the frontier's out-edges exceed ``|E_local| / alpha``, a round flips to
*pull* — unvisited rows scan their in-edges for a reached parent — and
skips the few giant middle frontiers of low-diameter power-law graphs.

This module generalizes what ``DirectionOptBFS`` used to keep as a
private reverse-graph cache: the density test (:class:`DirectionSelector`),
the shrinking pull pool over the reverse graph (:class:`PullPool`), and
the pull round itself (:func:`pull_step`), all phrased over a min-monoid
semiring.

Pull finalizes a row on its *first* reached parent, which is only the
true optimum level-synchronously; the soundness caveat (and why bfs-do
stays ``async_capable=False``) lives with the app — genericity does not
fix an algorithmic precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import expand
from repro.graph.csr import CSRGraph
from repro.la import spmv
from repro.la.semiring import Semiring

__all__ = ["DEFAULT_ALPHA", "DirectionSelector", "PullPool", "pull_step"]

#: Beamer's alpha: switch to pull when frontier out-edges > |E| / alpha
DEFAULT_ALPHA = 20.0


@dataclass(frozen=True)
class DirectionSelector:
    """The density test: push by default, pull past the alpha threshold."""

    alpha: float = DEFAULT_ALPHA

    def use_pull(self, graph: CSRGraph, frontier_edges: int) -> bool:
        return frontier_edges * self.alpha > graph.num_edges


class PullPool:
    """The shrinking pool of pull candidates over the reverse graph.

    Labels under a min monoid only ever drop below the identity, so rows
    leave the pool and never return — filtering last round's pool gives
    the same (sorted) unreached set a full rescan would, without paying
    for it every pull round.  Lives in private (underscore) app state:
    per-partition, never synchronized.
    """

    def __init__(self, graph: CSRGraph):
        self.rev = graph.reverse()
        self.rdeg = self.rev.out_degrees()
        self.pool = np.flatnonzero(self.rdeg > 0)

    def narrow(self, labels: np.ndarray, identity) -> np.ndarray:
        """Drop reached rows (label moved off the add identity —
        the structural complement mask, maintained incrementally)."""
        self.pool = self.pool[labels[self.pool] == identity]
        return self.pool


def pull_step(
    rows: np.ndarray,
    rev: CSRGraph,
    labels: np.ndarray,
    semiring: Semiring,
):
    """One pull round over a min-monoid semiring.

    Each row in ``rows`` (unreached, per the pool's complement mask)
    reduces its in-neighbors' combined values; parents still at the
    identity contribute nothing.  Returns ``(cand, hit, edges)`` where
    ``cand`` is the int64 candidate per row, ``hit`` masks rows that
    found a reached parent — or ``None`` when the rows have no in-edges
    at all (the caller emits its empty round).
    """
    counts, parents, _ = expand.expand_edges(rev, rows)
    if len(parents) == 0:
        return None
    rep = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    ident64 = np.int64(semiring.add.identity(labels.dtype))
    src = labels[parents]  # gathered once, in the labels' own dtype
    valid = src < ident64
    cand = spmv.segment_reduce(
        semiring.add, semiring.combine(src[valid], None), rep[valid],
        len(rows), np.int64, identity=ident64,
    )
    hit = cand < ident64
    return cand, hit, len(parents)

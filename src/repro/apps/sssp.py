"""Single-source shortest paths: data-driven push relaxation over the
randomized edge weights the paper attaches to every input."""

from __future__ import annotations

from repro.apps.bfs import BFS

__all__ = ["SSSP"]


class SSSP(BFS):
    """Chaotic-relaxation SSSP (Bellman-Ford style, frontier-driven).

    Identical sync contract to bfs (min-reduced ``dist``) and the same
    min-plus semiring; ``needs_weights`` makes :meth:`BFS.compute` add
    the edge weight instead of 1.
    """

    name = "sssp"
    needs_weights = True

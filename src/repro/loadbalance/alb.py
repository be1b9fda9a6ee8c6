"""ALB — Adaptive Load Balancer (Jatala et al., arXiv:1911.09135).

D-IrGL's default.  ALB monitors inter-block imbalance at runtime; the edges
of *very* high-degree vertices are split across **all** thread blocks, and
everything else falls back to TWC.  The result is near-perfect inter-block
balance at a small adaptivity cost — the mechanism behind Var2 beating Var1
on pull-style pagerank over the huge-in-degree web crawls while tying
everywhere else (Section V-B2).
"""

from __future__ import annotations

import numpy as np

from repro.constants import THREADS_PER_BLOCK
from repro.loadbalance.base import LoadBalancer, cyclic_max_load, register

__all__ = ["ALB"]

#: Floor on the split threshold: vertices below two block-widths are never
#: worth strip-mining.
MIN_SPLIT = 2 * THREADS_PER_BLOCK


class _ALB(LoadBalancer):
    name = "alb"
    #: adaptivity bookkeeping (imbalance detection kernel)
    overhead_factor = 1.06
    fixed_round_units = 512.0

    def max_block_load(self, degrees, num_blocks: int, total: float) -> float:
        # ALB detects imbalance *relative to the round's load*: any vertex
        # whose degree exceeds a couple of mean block-loads is promoted to
        # all-block strip-mining.  A fixed threshold would miss mid-degree
        # stragglers on sparse frontiers and over-split dense ones.
        threshold = max(2.0 * (total / num_blocks), float(MIN_SPLIT))
        heavy = degrees > threshold
        if not heavy.any():
            return cyclic_max_load(degrees, num_blocks)
        light = np.where(heavy, 0.0, degrees)
        # the heavy share lands on every block alike, and rounding is
        # monotone: max(loads + h) == max(loads) + h
        heavy_total = float(degrees[heavy].sum())
        return cyclic_max_load(light, num_blocks) + heavy_total / num_blocks


ALB = register(_ALB())

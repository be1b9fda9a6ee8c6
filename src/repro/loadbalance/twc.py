"""TWC — Thread / Warp / CTA expansion (Merrill, Garland, Grimshaw).

Each active vertex is handled at a granularity matched to its degree: a
single thread (small), a warp (medium), or the whole thread block (large).
Within a block this removes nearly all divergence waste, but a vertex's
edges never leave its block — so one ultra-high-degree vertex (clueweb12's
75M-in-degree authority, processed pull-style) serializes on a single block
while the others idle.  That inter-block imbalance is exactly what the
paper's Var1-vs-Var2 comparison isolates (Section V-B2).
"""

from __future__ import annotations

import numpy as np

from repro.loadbalance.base import LoadBalancer, cyclic_max_load, register

__all__ = ["TWC"]


class _TWC(LoadBalancer):
    name = "twc"
    #: small bookkeeping cost for the three-queue classification
    overhead_factor = 1.04
    fixed_round_units = 256.0

    def max_block_load(self, degrees, num_blocks: int, total: float) -> float:
        # Thread/warp/CTA expansion keeps within-block lanes busy, so a
        # vertex costs its degree (floor of one thread-step for the tiny
        # ones) — but the vertex never leaves its block, so giant degrees
        # pile onto a single CTA.
        cost = np.maximum(degrees, 1.0)
        return cyclic_max_load(cost, num_blocks)


TWC = register(_TWC())

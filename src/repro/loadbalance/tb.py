"""TB — Lux's per-thread-block edge distribution.

Lux assigns each active vertex's edges to the threads of one thread block,
irrespective of degree (Section III-E2).  Like TWC it cannot spill a giant
vertex across blocks; unlike TWC it processes *every* vertex at block
granularity, so low-degree vertices waste most of the block's threads (a
degree-3 vertex still occupies a 256-thread block for a step).  The paper
finds Lux's compute phase "similar" to TWC's because the wasted-lane cost
is partly hidden by memory latency — modeled as a fractional waste charge.
"""

from __future__ import annotations

import numpy as np

from repro.constants import WARP_SIZE
from repro.loadbalance.base import LoadBalancer, cyclic_max_load, register

__all__ = ["LuxTB"]

#: Fraction of the idle lanes in a partially-filled warp-step actually
#: charged (most of the waste hides behind memory latency, which is why the
#: paper finds Lux's compute phase similar to TWC's).
WASTE_CHARGE = 0.15


class _LuxTB(LoadBalancer):
    name = "tb"
    overhead_factor = 1.05
    fixed_round_units = 256.0

    def max_block_load(self, degrees, num_blocks: int, total: float) -> float:
        deg = np.maximum(degrees, 1.0)
        padded = np.ceil(deg / WARP_SIZE) * WARP_SIZE
        cost = deg + WASTE_CHARGE * (padded - deg)
        return cyclic_max_load(cost, num_blocks)


LuxTB = register(_LuxTB())

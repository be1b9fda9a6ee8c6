"""LB — Gunrock's load-balanced partitioning of the edge frontier.

Gunrock balances the *edges* of every vertex, irrespective of degree, across
all thread blocks (Davidson/Merrill-style merge-path search over the
frontier's scan of degrees).  Inter-block balance is essentially perfect,
but every edge pays the binary-search bookkeeping, so the per-edge constant
is the highest of the four schemes.
"""

from __future__ import annotations

from repro.loadbalance.base import LoadBalancer, register

__all__ = ["GunrockLB"]


class _GunrockLB(LoadBalancer):
    name = "lb"
    #: merge-path search cost per edge
    overhead_factor = 1.18
    fixed_round_units = 512.0

    def max_block_load(self, degrees, num_blocks: int, total: float) -> float:
        return total / num_blocks  # every block carries the same share


GunrockLB = register(_GunrockLB())

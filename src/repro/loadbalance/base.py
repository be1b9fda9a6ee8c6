"""Load-balancer cost-model interface.

The paper's computation optimization study (Section V-B2) turns on a single
mechanism: how a round's active edges are distributed over the GPU's thread
blocks.  All schemes balance well *within* a block; they differ in whether a
very-high-degree vertex can spill its edges *across* blocks.  The simulator
models each scheme as a mapping from the round's active-vertex degree array
to per-block work, and prices the round by the **maximum** block load (the
kernel finishes when its slowest block does) times the block count — the
makespan formulation.

``BlockCost.effective_work`` is expressed in *edge-traversal units*: the
engine converts units to seconds via the device's effective bandwidth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BlockCost", "LoadBalancer", "get_balancer", "cyclic_max_load"]


@dataclass(frozen=True)
class BlockCost:
    """Result of pricing one round's frontier on one device.

    Attributes
    ----------
    total_work:
        true edge traversals (the paper's "work items").
    effective_work:
        makespan-padded work: ``max_block_load * num_blocks * overhead`` —
        what the device actually spends cycles on.
    max_block_load:
        the straggler block's load (diagnostic).
    """

    total_work: float
    effective_work: float
    max_block_load: float


def cyclic_max_load(work: np.ndarray, num_blocks: int) -> float:
    """Deal per-vertex work units to blocks round-robin (how all schemes
    assign vertices to CTAs) and return the largest per-block sum.  With
    no more vertices than blocks, a block holds one vertex (``0.0 + w ==
    w``) or nothing, so no block array is built."""
    if len(work) <= num_blocks:
        return float(work.max()) if len(work) else 0.0
    blocks = np.arange(len(work)) % num_blocks
    return float(np.bincount(blocks, weights=work, minlength=num_blocks).max())


class LoadBalancer(ABC):
    """One edge-distribution strategy."""

    #: registry key
    name: str = ""
    #: multiplicative per-edge overhead of the scheme's bookkeeping
    overhead_factor: float = 1.0
    #: fixed work units charged per round (scheme setup kernels)
    fixed_round_units: float = 0.0

    @abstractmethod
    def max_block_load(self, degrees, num_blocks: int, total: float) -> float:
        """The straggler block's work units for a frontier with the given
        degrees (``total``: their sum): the one block the makespan prices."""

    def cost(self, degrees: np.ndarray, num_blocks: int) -> BlockCost:
        """Price one round's frontier."""
        degrees = np.asarray(degrees, dtype=np.float64)
        total = float(degrees.sum())
        max_load = self.max_block_load(degrees, num_blocks, total)
        effective = (
            max_load * num_blocks * self.overhead_factor + self.fixed_round_units
        )
        return BlockCost(
            total_work=total,
            effective_work=max(effective, total),
            max_block_load=max_load,
        )


_REGISTRY: dict[str, "LoadBalancer"] = {}


def register(balancer: LoadBalancer) -> LoadBalancer:
    _REGISTRY[balancer.name] = balancer
    return balancer


def get_balancer(name: str) -> LoadBalancer:
    """Look up a registered balancer: ``twc``, ``alb``, ``lb``, or ``tb``."""
    # populate the registry on first use
    from repro.loadbalance import alb, lb, tb, twc  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown load balancer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None

"""Weighted fair queueing for the serve layer.

Scheduling follows the classic virtual-time WFQ formulation: each flow
(client) carries a weight; a request of estimated cost ``c`` arriving on
flow ``f`` is stamped with a virtual *finish tag*

    ``tag = max(V(now), f.last_tag) + c / f.weight``

and the queue always releases the smallest tag first.  Heavier flows
accumulate virtual time more slowly, so they drain proportionally more
work per unit of contention — without starving light flows the way
strict priority would.  Everything is deterministic: ties break on
``(tag, sequence number)``, and the virtual clock only advances off
request arrivals/dispatches, never the wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["WFQQueue"]


@dataclass
class _Flow:
    weight: float = 1.0
    last_tag: float = 0.0


@dataclass(order=True)
class _Entry:
    tag: float
    seq: int
    item: Any = field(compare=False)


class WFQQueue:
    """Weighted fair queue over per-client flows (deterministic)."""

    def __init__(self):
        self._flows: dict[str, _Flow] = {}
        self._heap: list[_Entry] = []
        self._seq = 0
        self._virtual = 0.0

    def set_weight(self, flow: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("flow weights must be positive")
        self._flows.setdefault(flow, _Flow()).weight = float(weight)

    def push(self, flow: str, item: Any, cost: float = 1.0) -> float:
        """Enqueue ``item`` on ``flow``; returns the assigned finish tag."""
        f = self._flows.setdefault(flow, _Flow())
        tag = max(self._virtual, f.last_tag) + max(cost, 1e-9) / f.weight
        f.last_tag = tag
        heapq.heappush(self._heap, _Entry(tag, self._seq, item))
        self._seq += 1
        return tag

    def pop(self) -> Optional[Any]:
        """Dequeue the smallest finish tag (None when empty)."""
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        # the virtual clock rides the dispatched tags monotonically
        self._virtual = max(self._virtual, entry.tag)
        return entry.item

    def __len__(self) -> int:
        return len(self._heap)


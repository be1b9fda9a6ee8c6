"""CuSP-style partitioner front-end: a policy registry plus one entry point.

CuSP (Hoang et al., IPDPS'19) lets D-IrGL express arbitrary policies as a
pair of assignment rules (master placement x edge placement).  Our policies
are implemented the same way (see :mod:`repro.partition.base`), and this
module exposes them behind a single :func:`partition` call, with an LRU
cache standing in for the paper's practice of partitioning once and loading
partitions from disk ("graphs can be partitioned once, and in-memory
representations of the partitions can be written to disk" — Section IV,
footnote 2).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionedGraph
from repro.partition.cache import get_cache
from repro.partition.cvc import cvc
from repro.partition.edgecut import iec, oec
from repro.partition.hvc import hvc
from repro.partition.metis_like import metis_like
from repro.partition.random_part import random_vertex_cut
from repro.partition.jagged import jagged

__all__ = ["POLICIES", "partition", "clear_partition_cache"]

POLICIES: dict[str, Callable[[CSRGraph, int], PartitionedGraph]] = {
    "oec": oec,
    "iec": iec,
    "hvc": hvc,
    "cvc": cvc,
    "random": random_vertex_cut,
    "metis-like": metis_like,
    "jagged": jagged,
}


def partition(
    graph: CSRGraph,
    policy: str,
    num_partitions: int,
    cache: bool = True,
) -> PartitionedGraph:
    """Partition ``graph`` with the named policy.

    Parameters
    ----------
    policy:
        one of ``oec``, ``iec``, ``hvc``, ``cvc``, ``random``, ``metis-like``.
    cache:
        reuse a previously computed partitioning of a content-identical
        graph via :mod:`repro.partition.cache` (graphs are immutable, so
        this is safe and mirrors partition reuse across the paper's
        experiments; with a configured ``cache_dir`` the reuse extends
        across processes and runs).
    """
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
        )
    if num_partitions < 1:
        raise ConfigurationError("need at least one partition")
    if cache:
        pg = get_cache().lookup_or_build(
            graph, policy, num_partitions, POLICIES[policy]
        )
    else:
        pg = POLICIES[policy](graph, num_partitions)
    from repro.check.level import current_check_level

    level = current_check_level()
    if level:
        from repro.check import check_partition, check_partition_request

        # the request check is never memoized: it is what catches a stale
        # or mis-keyed cache entry answering the wrong (policy, P) request
        check_partition_request(pg, policy, num_partitions)
        check_partition(pg, level)
    return pg


def clear_partition_cache() -> None:
    """Drop cached partitionings (tests / memory pressure)."""
    from repro.partition.cache import clear

    clear()

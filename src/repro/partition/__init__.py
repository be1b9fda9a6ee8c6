"""CuSP-style graph partitioning: policies, proxies, and statistics."""

from repro.partition.base import LocalPartition, PartitionedGraph, build_partitions
from repro.partition.edgecut import iec, oec
from repro.partition.hvc import hvc
from repro.partition.cvc import cvc
from repro.partition.random_part import random_vertex_cut
from repro.partition.metis_like import metis_like
from repro.partition.jagged import jagged
from repro.partition.io import load_partitions, save_partitions
from repro.partition.stats import PartitionStats, partition_stats
from repro.partition.cache import CacheStats, PartitionCache, get_cache
from repro.partition.cusp import POLICIES, partition

__all__ = [
    "LocalPartition",
    "PartitionedGraph",
    "build_partitions",
    "iec",
    "oec",
    "hvc",
    "cvc",
    "random_vertex_cut",
    "metis_like",
    "jagged",
    "save_partitions",
    "load_partitions",
    "PartitionStats",
    "partition_stats",
    "POLICIES",
    "partition",
    "CacheStats",
    "PartitionCache",
    "get_cache",
]

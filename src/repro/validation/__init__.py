"""Reference implementations for validating distributed results."""

from repro.validation.reference import (
    pagerank_close,
    reference_bfs,
    reference_cc,
    reference_kcore_mask,
    reference_pagerank,
    reference_sssp,
    reference_triangle_count,
)

__all__ = [
    "reference_bfs",
    "reference_cc",
    "reference_kcore_mask",
    "reference_pagerank",
    "reference_sssp",
    "reference_triangle_count",
    "pagerank_close",
]

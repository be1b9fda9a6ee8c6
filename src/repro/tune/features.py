"""Cheap pre-partition graph features for the advisor.

Everything here is computed from the degree arrays alone — O(V + E) and
no partition is ever built.  Replication factors are *estimated* with
the distinct-bins expectation: a vertex of degree ``d`` whose neighbors
are spread over ``B`` equally likely bins touches ``B * (1 - (1 -
1/B)**d)`` distinct bins in expectation.  Blocked edge-cut policies
(IEC/OEC) assign contiguous owner ranges rather than uniform ones, so
the estimate is an upper-flavored proxy, but it preserves the ordering
the advisor needs (HVC > CVC bound > edge cuts on skewed graphs).

Every statistic is computed over *sorted* degree arrays, which makes the
features an exact function of the degree multiset: relabeling vertices
cannot change a single bit of the output (the property
``tests/test_tune.py`` pins with hypothesis).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.hvc import HUB_FACTOR
from repro.utils import grid_shape

__all__ = ["GraphFeatures", "extract_features", "expected_distinct_bins"]

#: GPU counts replication is pre-estimated for.
FEATURE_PARTS = (2, 4, 8, 16)

#: quantile-sample size for the replication estimators; degrees are
#: sorted first, so a strided sample is a deterministic quantile sketch.
SAMPLE_SIZE = 4096

#: length of the out-degree sketch carried on the features (the
#: predictor's synthetic-frontier shape).
SKETCH_SIZE = 64


@dataclass(frozen=True)
class GraphFeatures:
    """Degree-multiset features of one graph (permutation-invariant)."""

    name: str
    num_vertices: int
    num_edges: int
    density: float  # m / n^2
    avg_degree: float  # m / n
    max_out_degree: int
    max_in_degree: int
    out_degree_cv: float  # std / mean (0 for regular graphs)
    in_degree_cv: float
    out_degree_skew: float  # max / mean — hub dominance
    hub_edge_fraction: float  # in-edge mass on HVC-threshold hubs
    est_rounds: float  # crude traversal-depth proxy
    #: quantile sketch of the sorted-descending out-degrees (<= 64
    #: floats) — the predictor's synthetic-frontier shape
    out_degree_sketch: tuple = ()
    #: ``((policy, parts), estimated replication factor)``, sorted
    replication: tuple = ()

    def rf(self, policy: str, parts: int) -> float:
        """Estimated replication factor for ``policy`` at ``parts``."""
        table = dict(self.replication)
        key = (policy, parts)
        if key in table:
            return table[key]
        raise KeyError(
            f"no replication estimate for {key}; available: {sorted(table)}"
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "replication":
                v = [[list(k), float(x)] for k, x in v]
            elif f.name == "out_degree_sketch":
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GraphFeatures":
        kw = dict(data)
        kw["replication"] = tuple(
            ((str(k[0]), int(k[1])), float(x)) for k, x in kw["replication"]
        )
        kw["out_degree_sketch"] = tuple(float(x) for x in kw["out_degree_sketch"])
        return cls(**kw)


def expected_distinct_bins(degrees: np.ndarray, bins: int) -> np.ndarray:
    """E[# distinct bins hit] for each degree, under uniform placement."""
    d = np.asarray(degrees, dtype=np.float64)
    if bins <= 1:
        return np.ones_like(d)
    return bins * (1.0 - (1.0 - 1.0 / bins) ** d)


def _quantile_sample(sorted_desc: np.ndarray, size: int = SAMPLE_SIZE) -> np.ndarray:
    """Deterministic quantile sketch of a sorted-descending degree array."""
    n = len(sorted_desc)
    if n <= size:
        return sorted_desc
    idx = np.linspace(0, n - 1, size).astype(np.int64)
    return sorted_desc[idx]


def _est_replication(
    out_desc: np.ndarray, in_desc: np.ndarray, avg_degree: float
) -> tuple:
    """Per-(policy, parts) replication estimates from degree sketches.

    * **IEC** places the edge at ``owner(dst)``: a source of out-degree
      ``d`` gets proxies on the distinct owners of its ``d`` targets.
    * **OEC** is the transpose: in-degree drives the spread.
    * **CVC** bounds every vertex's proxies by its grid row + column
      (``pr + pc - 1``); within the bound, columns are hit by out-edges
      and rows by in-edges.
    * **HVC** hash-scatters hub in-edges: hubs replicate like a random
      cut of their in-degree, non-hubs like an IEC source plus the
      spill of their edges into hub partitions.
    """
    out_s = _quantile_sample(out_desc)
    in_s = _quantile_sample(in_desc)
    hub_cut = HUB_FACTOR * max(avg_degree, 1e-12)
    hubs = in_s > hub_cut
    table = []
    for P in FEATURE_PARTS:
        pr, pc = grid_shape(P)
        iec = np.maximum(expected_distinct_bins(out_s, P), 1.0)
        oec = np.maximum(expected_distinct_bins(in_s, P), 1.0)
        cvc = np.clip(
            expected_distinct_bins(out_s, pc) + expected_distinct_bins(in_s, pr) - 1.0,
            1.0,
            pr + pc - 1.0,
        )
        hvc = np.where(
            hubs,
            np.maximum(expected_distinct_bins(in_s, P), 1.0),
            np.maximum(expected_distinct_bins(out_s, P), 1.0),
        )
        table += [
            (("iec", P), float(iec.mean())),
            (("oec", P), float(oec.mean())),
            (("cvc", P), float(cvc.mean())),
            (("hvc", P), float(hvc.mean())),
        ]
    return tuple(sorted(table))


def _est_rounds(n: int, avg_degree: float) -> float:
    """Traversal-depth proxy: log-diameter for expander-ish graphs,
    linear for chains (average degree <= 1)."""
    if n <= 1:
        return 1.0
    if avg_degree <= 1.0:
        return float(n)
    return max(1.0, float(np.log(n) / np.log(1.0 + avg_degree)) + 1.0)


def extract_features(graph: CSRGraph, name: str = "") -> GraphFeatures:
    """Extract :class:`GraphFeatures` — degree arrays only, no partition."""
    n = int(graph.num_vertices)
    m = int(graph.num_edges)
    # Sorted-descending degree multisets: every downstream statistic is a
    # deterministic function of these, hence relabeling-invariant.
    out_desc = np.sort(np.asarray(graph.out_degrees(), dtype=np.float64))[::-1]
    in_desc = np.sort(np.asarray(graph.in_degrees(), dtype=np.float64))[::-1]
    avg = m / n if n else 0.0
    out_mean = float(out_desc.mean()) if n else 0.0
    in_mean = float(in_desc.mean()) if n else 0.0
    out_std = float(out_desc.std()) if n else 0.0
    in_std = float(in_desc.std()) if n else 0.0
    hub_cut = HUB_FACTOR * max(avg, 1e-12)
    hub_mass = float(in_desc[in_desc > hub_cut].sum()) if n else 0.0
    return GraphFeatures(
        name=name or graph.name,
        num_vertices=n,
        num_edges=m,
        density=m / (n * n) if n else 0.0,
        avg_degree=avg,
        max_out_degree=int(out_desc[0]) if n else 0,
        max_in_degree=int(in_desc[0]) if n else 0,
        out_degree_cv=out_std / out_mean if out_mean else 0.0,
        in_degree_cv=in_std / in_mean if in_mean else 0.0,
        out_degree_skew=float(out_desc[0]) / out_mean if out_mean else 0.0,
        hub_edge_fraction=hub_mass / m if m else 0.0,
        est_rounds=_est_rounds(n, avg),
        out_degree_sketch=tuple(
            float(x) for x in _quantile_sample(out_desc, SKETCH_SIZE)
        ),
        replication=_est_replication(out_desc, in_desc, avg) if n else (),
    )

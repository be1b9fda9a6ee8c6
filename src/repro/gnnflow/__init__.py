"""GNN feature-traffic workload and placement-policy study.

The :class:`GNNFlow` vertex program generates the host->device
feature-gather traffic of sampled GNN training on top of the existing
engine/sync/pricing stack; :func:`gnn_study` sweeps placement policies
(PaGraph-style hot-vertex buffers, locality-aware sampling) against the
plain partition policies.  See docs/gnnflow.md.
"""

from repro.gnnflow.study import (
    GNN_GATE_SHAPE,
    GNN_PLACEMENTS,
    GNN_POLICIES,
    GNN_SEED,
    GNN_SHAPES,
    H2D_REDUCTION_GATE,
    GnnReport,
    GnnRow,
    evaluate_gnn,
    gnn_study,
)
from repro.gnnflow.workload import GNNFlow, GNNFlowConfig, feature_value

__all__ = [
    "GNN_GATE_SHAPE",
    "GNN_PLACEMENTS",
    "GNN_POLICIES",
    "GNN_SEED",
    "GNN_SHAPES",
    "H2D_REDUCTION_GATE",
    "GNNFlow",
    "GNNFlowConfig",
    "GnnReport",
    "GnnRow",
    "evaluate_gnn",
    "feature_value",
    "gnn_study",
]

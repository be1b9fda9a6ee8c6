"""Incremental re-execution: delta frontiers instead of from-scratch runs.

The serving layer's hot path: when a graph mutates between two requests
for the same analytics, most label vectors barely move, so re-deriving
them from the previous answer is far cheaper than a full engine run.
The catch is correctness — the repo's core contract is that every
execution path produces *bit-identical* labels, and this module keeps
that contract by construction:

* **bfs / bfs-do / sssp** — hop/weighted distances are the unique
  fixpoint of min-relaxation, so a label-correcting sweep over the new
  graph seeded from inserted-edge endpoints reaches exactly the labels a
  from-scratch run produces.  Valid only when no *load-bearing* edge was
  deleted: a deleted edge ``(u, v, w)`` with ``dist[v] == dist[u] + w``
  may have carried a shortest path, so those batches fall back to a full
  recompute.  (Tightness is checked against every matching parallel edge
  of the old graph; deletes of pairs the old graph never had cannot
  invalidate old distances.)
* **cc / cc-pj** — component labels (min global vertex ID) are likewise
  a unique min-propagation fixpoint; inserts only ever merge components,
  so min-label propagation over the symmetrized new graph seeded from
  insert endpoints is exact.  Any *effective* delete (a pair the old
  graph actually had) can split a component and forces a full recompute.
* **pr / pr-push (and every other float app)** — PageRank labels are
  path-dependent (residual thresholds, accumulation order), so no
  incremental path can be bit-identical; the strategy is always
  ``"full"``.  This is the incremental re-execution *contract*, not a
  temporary limitation: exactness first, speed second (docs/serve.md).

Every delta path is differentially verified against from-scratch engine
runs across all fuzz shapes and both engines (tests/test_incremental.py,
plus the ``repro-fuzz`` mutation axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import INF
from repro.graph.csr import CSRGraph
from repro.graph.mutable import EdgeBatch, pair_match_mask
from repro.graph.transform import make_undirected
from repro.idset import unique_ids
from repro.la import semiring, spmv

__all__ = [
    "DELTA_APPS",
    "IncrementalResult",
    "incremental_run",
]

#: apps with an exact delta path; everything else always recomputes
DELTA_APPS = frozenset({"bfs", "bfs-do", "sssp", "cc", "cc-pj"})


@dataclass(frozen=True)
class IncrementalResult:
    """Outcome of an incremental attempt.

    ``labels is None`` means "run the engine from scratch" (``mode`` is
    ``"full"`` and ``reason`` says why); otherwise ``labels`` is
    bit-identical to what a from-scratch run would produce, and
    ``work_edges`` counts the edges the delta sweep actually relaxed —
    the quantity the serve scheduler prices the run by.
    """

    mode: str  # "delta" | "full"
    reason: str
    labels: np.ndarray | None = None
    work_edges: int = 0
    rounds: int = 0


def _cat(batches, attr: str) -> np.ndarray:
    """One endpoint column of every batch, concatenated."""
    return np.concatenate(
        [np.asarray(getattr(b, attr), dtype=np.int64) for b in batches]
    )


def _sweep(
    graph: CSRGraph,
    labels: np.ndarray,
    frontier: np.ndarray,
    ring: semiring.Semiring,
    with_weights: bool,
) -> tuple[int, int]:
    """Push rounds from ``frontier`` to the fixpoint — the data-driven
    apps' own round on one partition that is the whole graph.  Relaxes
    ``labels`` (int64) in place; returns ``(edges relaxed, rounds)``."""
    work = rounds = 0
    while len(frontier):
        rounds += 1
        frontier, edges = spmv.spmsv_push(
            graph, frontier, labels, labels, ring, with_weights
        )
        work += edges
    return work, rounds


def incremental_run(
    app: str,
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    batches: tuple[EdgeBatch, ...] | list[EdgeBatch],
    prior_labels: np.ndarray,
) -> IncrementalResult:
    """Try to derive ``app``'s labels on ``new_graph`` from
    ``prior_labels`` (its labels on ``old_graph``) plus the mutation
    ``batches`` between the two.

    ``old_graph``/``new_graph`` are the *directed* snapshots; cc apps
    symmetrize internally, mirroring :class:`~repro.frameworks.base.
    Framework`.  Returns a full-recompute decision whenever exactness
    cannot be guaranteed.
    """
    if app not in DELTA_APPS:
        return IncrementalResult("full", f"{app} has no exact delta path")
    if not batches:
        return IncrementalResult(
            "delta", "no pending mutations",
            labels=np.asarray(prior_labels).copy(),
        )
    ins_src, ins_dst = _cat(batches, "insert_src"), _cat(batches, "insert_dst")
    del_src, del_dst = _cat(batches, "delete_src"), _cat(batches, "delete_dst")
    labels = np.asarray(prior_labels).astype(np.int64)
    seeds = unique_ids(np.concatenate([ins_src, ins_dst]), len(labels))
    weighted = app == "sssp"

    # dead: old edges a delete removed (a never-present pair removes none)
    n = old_graph.num_vertices
    if app in ("cc", "cc-pj"):
        old_sym = make_undirected(old_graph.topology())
        edges = old_sym.edge_sources(), old_sym.indices
        # the symmetric view also loses (v, u) when (u, v) is deleted
        dead = (pair_match_mask(*edges, del_src, del_dst, n)
                | pair_match_mask(*edges, del_dst, del_src, n))
        if dead.any():
            return IncrementalResult(
                "full", f"{int(dead.sum())} deleted edge(s) may split "
                "components"
            )
        graph, ring = make_undirected(new_graph.topology()), semiring.MIN_FIRST
        verb = "merged"
    else:
        dead = pair_match_mask(
            old_graph.edge_sources(), old_graph.indices, del_src, del_dst, n
        )
        if dead.any():
            # load-bearing check: was any deleted old edge tight?
            e_src = old_graph.edge_sources()[dead].astype(np.int64)
            e_dst = old_graph.indices[dead].astype(np.int64)
            e_w = old_graph.weights[dead].astype(np.int64) if weighted else 1
            d_src = labels[e_src]
            tight = (d_src < INF) & (d_src + e_w == labels[e_dst])
            if tight.any():
                return IncrementalResult(
                    "full", f"{int(tight.sum())} deleted edge(s) lay on a "
                    "shortest path"
                )
        graph, ring, verb = new_graph, semiring.MIN_PLUS, "relaxed"
        # an unreached endpoint has nothing to offer its neighbours
        seeds = seeds[labels[seeds] < INF]
    work, rounds = _sweep(graph, labels, seeds, ring, weighted)
    return IncrementalResult(
        "delta", f"{len(ins_src)} insert(s) {verb}", work_edges=work,
        rounds=rounds, labels=labels.astype(prior_labels.dtype),
    )

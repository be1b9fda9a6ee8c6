"""Structural invariant checkers for partitioned graphs.

These mechanize the contracts CuSP (Hoang et al., IPDPS'19) and Gluon
(Dathathri et al., PLDI'18) rely on:

* every global vertex has **exactly one master** proxy (masters partition V);
* every global edge is stored on **exactly one** partition — count-wise at
  CHEAP, as an exact multiset (including weights) at FULL;
* the memoized exchange lists agree on both sides of every pair — same
  length, same global IDs, ascending order, mirror side holds mirrors,
  master side holds masters owned by the right partition (this order
  agreement is what lets Gluon elide addresses on the wire);
* policy-specific placement rules hold at FULL: OEC mirrors own no
  out-edges, IEC mirrors own no in-edges, CVC proxies respect the grid
  row/column constraints, HVC edges sit either with the destination's
  master or at the source-hash partition.

:func:`check_partition` is memoized per ``PartitionedGraph`` (a stamp on
the instance records the strongest level already verified), so cached
partitions are not re-checked on every lookup.  :func:`check_partition_request`
is deliberately *not* memoized — it re-validates that a (possibly cached)
partitioning actually answers the request it is returned for, which is the
stale-cache-entry detector.
"""

from __future__ import annotations

import numpy as np

from repro.check.level import CheckLevel
from repro.errors import InvariantViolation
from repro.partition.base import PartitionedGraph

__all__ = ["check_partition", "check_partition_request"]

_STAMP = "_check_level_done"


def _fail(checker: str, message: str):
    raise InvariantViolation(message, checker=checker)


def check_partition_request(
    pg: PartitionedGraph, policy: str, num_partitions: int
) -> None:
    """Verify ``pg`` is actually a ``policy``/``num_partitions`` partitioning.

    Guards the partition cache: a broken cache key (or a stale disk entry)
    that returns a partitioning built for a *different* request would
    silently skew every downstream measurement.
    """
    if pg.policy != policy:
        _fail(
            "partition-request",
            f"cache returned a {pg.policy!r} partitioning for a "
            f"{policy!r} request",
        )
    if pg.num_partitions != num_partitions:
        _fail(
            "partition-request",
            f"cache returned {pg.num_partitions} partitions for a "
            f"{num_partitions}-partition request",
        )


def check_partition(pg: PartitionedGraph, level: CheckLevel) -> None:
    """Run structural checks on ``pg`` at ``level``.

    Raises :class:`~repro.errors.InvariantViolation` on the first breach.
    Results are memoized on the instance: re-checking at the same or a
    weaker level is a no-op (partitions are immutable once built).
    """
    if not level:
        return
    done = pg.__dict__.get(_STAMP, CheckLevel.OFF)
    if done >= level:
        return
    _check_cheap(pg)
    if level >= CheckLevel.FULL:
        _check_full(pg)
    pg.__dict__[_STAMP] = level


# ---------------------------------------------------------------------------
# CHEAP: O(V + proxies) structural checks


def _check_cheap(pg: PartitionedGraph) -> None:
    n = pg.num_global_vertices
    P = pg.num_partitions
    owner = pg.vertex_owner

    if len(pg.parts) != P:  # pragma: no cover - definitional
        _fail("partition-structure", "parts list length != num_partitions")

    master_count = np.zeros(n, dtype=np.int64)
    for p in pg.parts:
        np.add.at(master_count, p.masters_global(), 1)
    bad = np.flatnonzero(master_count != 1)
    if len(bad):
        v = int(bad[0])
        _fail(
            "master-uniqueness",
            f"vertex {v} has {int(master_count[v])} masters "
            f"(expected exactly 1); {len(bad)} vertices affected",
        )

    for p in pg.parts:
        l2g = p.local_to_global
        if len(l2g) > 1 and not np.all(np.diff(l2g) > 0):
            _fail(
                "local-id-order",
                f"partition {p.pid}: local_to_global is not strictly "
                "increasing",
            )
        if not np.array_equal(p.to_local(l2g), np.arange(len(l2g))):
            _fail(
                "global-to-local",
                f"partition {p.pid}: to_local is not the inverse of "
                "local_to_global",
            )
        expect_master = owner[l2g] == p.pid
        if not np.array_equal(p.is_master, expect_master):
            v = int(l2g[np.flatnonzero(p.is_master != expect_master)[0]])
            _fail(
                "master-flags",
                f"partition {p.pid}: is_master flag disagrees with "
                f"vertex_owner at global vertex {v}",
            )

    total_edges = int(sum(p.graph.num_edges for p in pg.parts))
    if total_edges != pg.global_graph.num_edges:
        _fail(
            "edge-conservation",
            f"partitions hold {total_edges} edges but the global graph has "
            f"{pg.global_graph.num_edges} (every edge must be stored exactly "
            "once)",
        )

    _check_exchange_lists(pg)

    if pg.grid is not None:
        pr, pc = pg.grid
        if pr * pc != P:
            _fail(
                "grid-shape",
                f"grid {pg.grid} does not tile {P} partitions",
            )


def _check_exchange_lists(pg: PartitionedGraph) -> None:
    owner = pg.vertex_owner
    for p in pg.parts:
        covered = 0
        for q, mlocal in p.mirror_exchange.items():
            if q == p.pid:
                _fail(
                    "exchange-symmetry",
                    f"partition {p.pid} lists itself as a mirror peer",
                )
            other = pg.parts[q].master_exchange.get(p.pid)
            if other is None or len(other) != len(mlocal):
                _fail(
                    "exchange-symmetry",
                    f"exchange lists between {p.pid} and {q} have no "
                    "matching master side (or lengths differ)",
                )
            g_here = p.local_to_global[mlocal]
            g_there = pg.parts[q].local_to_global[other]
            if not np.array_equal(g_here, g_there):
                _fail(
                    "exchange-order",
                    f"exchange global-ID order differs between mirror side "
                    f"{p.pid} and master side {q} (address elision would "
                    "deliver values to the wrong proxies)",
                )
            if len(g_here) > 1 and not np.all(np.diff(g_here) > 0):
                _fail(
                    "exchange-order",
                    f"exchange list {p.pid}->{q} is not sorted by global ID",
                )
            if np.any(p.is_master[mlocal]):
                _fail(
                    "exchange-sides",
                    f"partition {p.pid}'s mirror_exchange[{q}] contains a "
                    "master proxy",
                )
            if not np.all(pg.parts[q].is_master[other]):
                _fail(
                    "exchange-sides",
                    f"partition {q}'s master_exchange[{p.pid}] contains a "
                    "mirror proxy",
                )
            if not np.all(owner[g_here] == q):
                _fail(
                    "exchange-owner",
                    f"partition {p.pid}'s mirror_exchange[{q}] lists a "
                    f"vertex whose master is not on {q}",
                )
            covered += len(mlocal)
        if covered != p.num_mirrors:
            _fail(
                "mirror-coverage",
                f"partition {p.pid}: exchange lists cover {covered} of "
                f"{p.num_mirrors} mirrors (every mirror must have exactly "
                "one master peer)",
            )


# ---------------------------------------------------------------------------
# FULL: O(E log E) exactness + per-policy placement rules


def _check_full(pg: PartitionedGraph) -> None:
    _check_edge_multiset(pg)
    _check_policy_rules(pg)


def _local_edges_global(p) -> tuple[np.ndarray, np.ndarray]:
    gs = p.local_to_global[p.graph.edge_sources()]
    gd = p.local_to_global[p.graph.indices]
    return gs, gd


def _check_edge_multiset(pg: PartitionedGraph) -> None:
    """Exactly-once edge ownership as a multiset, not just a count."""
    g = pg.global_graph
    stride = np.int64(max(g.num_vertices, 1))
    global_key = g.edge_sources().astype(np.int64) * stride + g.indices.astype(
        np.int64
    )
    local_keys = []
    local_w = []
    for p in pg.parts:
        gs, gd = _local_edges_global(p)
        local_keys.append(gs.astype(np.int64) * stride + gd.astype(np.int64))
        if g.has_weights:
            local_w.append(p.graph.weights)
    local_key = (
        np.concatenate(local_keys) if local_keys else np.empty(0, np.int64)
    )
    if g.has_weights:
        gw = g.weights
        lw = np.concatenate(local_w) if local_w else np.empty(0, gw.dtype)
        g_order = np.lexsort((gw, global_key))
        l_order = np.lexsort((lw, local_key))
        ok = np.array_equal(
            global_key[g_order], local_key[l_order]
        ) and np.array_equal(gw[g_order], lw[l_order])
    else:
        ok = np.array_equal(np.sort(global_key), np.sort(local_key))
    if not ok:
        _fail(
            "edge-multiset",
            "partitioned edges are not the same multiset as the global "
            "graph's edges (some edge is dropped, duplicated, or rewired)",
        )


def _check_policy_rules(pg: PartitionedGraph) -> None:
    owner = pg.vertex_owner
    policy = pg.policy
    if policy == "oec":
        for p in pg.parts:
            gs, _ = _local_edges_global(p)
            bad = np.flatnonzero(owner[gs] != p.pid)
            if len(bad):
                _fail(
                    "oec-placement",
                    f"partition {p.pid} stores an out-edge of global vertex "
                    f"{int(gs[bad[0]])} whose master lives elsewhere (OEC "
                    "mirrors must have no out-edges)",
                )
    elif policy == "iec":
        for p in pg.parts:
            _, gd = _local_edges_global(p)
            bad = np.flatnonzero(owner[gd] != p.pid)
            if len(bad):
                _fail(
                    "iec-placement",
                    f"partition {p.pid} stores an in-edge of global vertex "
                    f"{int(gd[bad[0]])} whose master lives elsewhere (IEC "
                    "mirrors must have no in-edges)",
                )
    elif policy == "cvc":
        if pg.grid is None:
            _fail("cvc-grid", "CVC partitioning has no grid")
        _, pc = pg.grid
        for p in pg.parts:
            row, col = pg.grid_position(p.pid)
            go = owner[p.local_to_global]
            out_bad = p.has_out_edges() & (go // pc != row)
            if np.any(out_bad):
                v = int(p.local_to_global[np.flatnonzero(out_bad)[0]])
                _fail(
                    "cvc-grid",
                    f"partition {p.pid} (row {row}): proxy of vertex {v} has "
                    "out-edges but its master is in a different grid row",
                )
            in_bad = p.has_in_edges() & (go % pc != col)
            if np.any(in_bad):
                v = int(p.local_to_global[np.flatnonzero(in_bad)[0]])
                _fail(
                    "cvc-grid",
                    f"partition {p.pid} (col {col}): proxy of vertex {v} has "
                    "in-edges but its master is in a different grid column",
                )
    elif policy == "hvc":
        from repro.partition.hvc import _hash_owner

        P = pg.num_partitions
        for p in pg.parts:
            gs, gd = _local_edges_global(p)
            at_dst_master = owner[gd] == p.pid
            at_src_hash = _hash_owner(gs.astype(np.int64), P) == p.pid
            bad = np.flatnonzero(~(at_dst_master | at_src_hash))
            if len(bad):
                e = int(bad[0])
                _fail(
                    "hvc-placement",
                    f"partition {p.pid} stores edge "
                    f"({int(gs[e])}->{int(gd[e])}) that belongs neither to "
                    "the destination's master nor to the source-hash "
                    "partition",
                )
    # random / metis-like / jagged place edges by data-
    # dependent heuristics with no closed-form rule to re-derive here; the
    # generic exactly-once + proxy checks above still apply to them.

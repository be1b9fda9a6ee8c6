"""Planted bugs: mutation testing for the correctness harness itself.

A checker that never fires is indistinguishable from a checker that
cannot fire.  Each context manager here monkey-patches one realistic bug
class into the runtime — the kinds of defects the Gluon sync layer,
partition cache, and apps could plausibly grow — so the test suite can
assert the harness (``repro.check`` invariants at FULL plus the fuzz
oracles) actually detects every one of them.

Every mutation clears the partition cache on entry *and* exit: cached
:class:`PartitionedGraph` instances memoize their Gluon plans and carry
check-memoization stamps, so a mutation must never leak into (or out of)
a cached structure another test will reuse.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "MUTATIONS",
    "drop_mirror_update",
    "sendtable_offset_skew",
    "skip_reduce_partner",
    "stale_partition_cache",
    "cc_wrong_tiebreak",
    "bitset_clear_off_by_one",
    "la_semiring_identity",
    "batch_receiver_skew",
    "pull_workspace_stale_tail",
    "expand_drops_last_edge",
    "operator_emits_minus_one",
    "extract_skip_misses_reduce",
    "dense_global_to_local",
]


@contextmanager
def _planted(owner, name: str, bad):
    """``owner.name = bad`` for the block, between two clears of the
    partition cache (see the module docstring)."""
    from repro.partition.cache import clear

    orig = owner.__dict__[name]  # not getattr: keeps a staticmethod wrapped
    clear()
    setattr(owner, name, bad)
    try:
        yield
    finally:
        setattr(owner, name, orig)
        clear()


def drop_mirror_update():
    """A broadcast that silently loses one mirror write.

    The classic "lost update": the master's canonical value is computed,
    the message is delivered, but one mirror slot never lands.  Caught by
    the ``post-sync-broadcast`` checker (mirror/master disagreement right
    after the sync) or, failing that, by the final reference comparison.
    """
    from repro.comm.gluon import GluonComm

    orig = GluonComm.apply_broadcast
    state = {"armed": True}

    def bad(self, field, batch, labels):
        before = labels.flat.copy()
        changed = orig(self, field, batch, labels)
        if state["armed"] and len(changed):
            lost = changed[0]
            labels.flat[lost] = before[lost]
            state["armed"] = False
            changed = changed[changed != lost]
        return changed

    return _planted(GluonComm, "apply_broadcast", bad)


def sendtable_offset_skew():
    """An off-by-one in the exchange table's segment offsets.

    Shifts one interior offset so a segment reads a neighbor's element —
    exactly the bug a vectorization rewrite of the extraction path would
    introduce.  Caught structurally by the ``send-table`` checker the
    moment the comm engine is built at CHEAP or FULL.
    """
    from repro.comm.gluon import _ExchangeTable

    orig = _ExchangeTable.__init__

    def bad(self, plans, base):
        orig(self, plans, base)
        if len(self.seg_len):
            # interior offset when there are >= 2 segments, else the
            # total — either way the cumsum property is broken
            self.seg_off[1 if len(self.seg_len) >= 2 else -1] += 1

    return _planted(_ExchangeTable, "__init__", bad)


def skip_reduce_partner():
    """One mirror->master reduce pair silently dropped from the plan.

    That master never hears from one of its mirrors, so its "global"
    minimum/maximum is only locally global.  Caught by the
    ``post-sync-reduce`` dominance check or the reference comparison.
    """
    from repro.comm.gluon import GluonComm

    orig = GluonComm._build_plans

    def bad(self, spec):
        reduce_plans, broadcast_plans = orig(self, spec)
        if reduce_plans:
            del reduce_plans[next(iter(sorted(reduce_plans)))]
        return reduce_plans, broadcast_plans

    return _planted(GluonComm, "_build_plans", bad)


def stale_partition_cache():
    """A cache key that forgets the partition count.

    Two sweeps over the same graph at different GPU counts now collide,
    and the second silently computes on the first's partitioning.  Caught
    by the ``partition-request`` checker, which compares the returned
    structure against what was actually asked for.
    """
    from repro.partition.cache import PartitionCache

    def bad(graph, policy, num_partitions):
        return (graph.content_hash(), policy, 0)

    return _planted(PartitionCache, "key_for", staticmethod(bad))


def cc_wrong_tiebreak():
    """Label propagation seeded with *local* instead of global IDs.

    Every partition then elects component representatives from its own
    numbering — answers disagree across partition counts and with the
    reference.  Only the final-answer oracle can see this one; it is the
    reason the fuzzer compares against references, not just invariants.
    """
    from repro.apps.cc import CC

    orig = CC.init_state

    def bad(self, part, ctx):
        return {"comp": np.arange(part.num_local, dtype=np.uint32)}

    return _planted(CC, "init_state", bad)


def bitset_clear_off_by_one():
    """``Bitset.clear(idx)`` misses the last element — an off-by-one slice.

    The batch extraction clears sent proxies' dirty bits through this
    method; the per-element oracle writes ``bits`` directly.  The planted
    off-by-one therefore skews only the production path, and the
    FULL-level ``extract-differential`` comparison catches the divergence
    in the post-extraction dirty state on the first non-trivial send.
    """
    from repro.comm.bitset import Bitset

    orig = Bitset.clear

    def bad(self, idx=None):
        if idx is None:
            return orig(self, None)
        idx = np.atleast_1d(np.asarray(idx))
        orig(self, idx[:-1])

    return _planted(Bitset, "clear", bad)


def la_semiring_identity():
    """The min-plus additive identity planted as 0 instead of INF.

    The classic semiring bug: an "identity" that is not actually
    neutral.  Everything in the LA core that fills with or compares
    against the identity is poisoned — most visibly the direction
    selector's pull pool, which now takes *visited* vertices (distance
    0) for unvisited candidates and never relaxes anyone, so bfs-do
    terminates with unreached labels.  The semiring catalog is looked
    up through the module attribute at call time precisely so this
    plant is visible to the apps; caught by the final reference
    comparison on any pull-heavy cell.
    """
    from dataclasses import replace

    from repro.la import semiring

    orig = semiring.MIN_PLUS
    bad = replace(orig, add=replace(orig.add, identity_value=0))
    return _planted(semiring, "MIN_PLUS", bad)


def batch_receiver_skew():
    """An off-by-one in the receiver bases of a step apply.

    A BSP sync step is one scatter: each message's targets are shifted by
    its receiver's base in the flat field array, one ``repeat`` over the
    per-message element counts.  With the counts skewed, the first
    message's last element takes the *next* message's base and lands on
    another partition's proxy.  Caught by the ``post-sync`` dominance
    checkers or the final reference comparison.
    """
    from dataclasses import replace

    from repro.comm.gluon import GluonComm

    orig = GluonComm.apply_reduce

    def bad(self, field, batch, labels):
        num = batch.num_elements.copy()
        if len(num) > 1:
            num[0] -= 1
            num[-1] += 1
        return orig(self, field, replace(batch, num_elements=num), labels)

    return _planted(GluonComm, "apply_reduce", bad)


def pull_workspace_stale_tail():
    """A pull block whose gather stops one edge short of its workspace.

    The plan's workspace is reused by every row block of every round, so
    an off-by-one in a block's length leaves the previous block's (or
    round's) last value in the tail and the block's last row sums it —
    the bug a plan-owned buffer makes possible and fresh per-round
    temporaries never could.  Caught by the FULL-level
    ``pull-differential`` comparison against
    :func:`repro.check.oracle.pull_reference` on the first pull.
    """
    from repro.la import spmv

    orig = spmv._gather

    def bad(xw, idx, out):
        orig(xw, idx[:-1], out[:-1])

    return _planted(spmv, "_gather", bad)


def expand_drops_last_edge():
    """A gathered expansion that loses each vertex's last out-edge.

    Only the gather branch is wrong: a dense round — one contiguous CSR
    range, the slice fast path — still expands correctly and a scattered
    frontier computes on a thinned graph.  Every layer shares this one
    expansion, so no referee may: caught by the reference comparison and
    by a mutation-axis case's incremental-vs-full differential.
    """
    from repro.graph import expand

    orig = expand._edge_selector

    def bad(*ranges):
        counts, sel = orig(*ranges)
        if isinstance(sel, slice):
            return counts, sel
        last = (np.cumsum(counts) - 1)[counts > 0]
        return counts - (counts > 0), np.delete(sel, last)

    return _planted(expand, "_edge_selector", bad)


def operator_emits_minus_one():
    """An operator that forgot the ``l >= 0`` filter on
    :meth:`~repro.partition.base.LocalPartition.to_local`: its updated
    set carries the ``-1`` ``to_local`` answers for a vertex the
    partition does not hold (here ``|V|``, which no partition holds).
    NumPy wraps it, so unchecked the partition's *last* proxy is marked
    dirty and shipped.  Caught by the CHEAP ``operator-ids`` checker on
    the first round that updates anything.
    """
    from repro.apps.bfs import BFS

    orig = BFS.compute

    def bad(self, part, ctx, state, frontier):
        out = orig(self, part, ctx, state, frontier)
        for name, ids in out.updated.items():
            if len(ids):
                foreign = part.to_local(ctx.num_global_vertices)
                out.updated[name] = np.append(ids, foreign)
        return out

    return _planted(BFS, "compute", bad)


def extract_skip_misses_reduce():
    """A reduce apply that dirties its receiver's masters but leaves the
    receiver's clean-sender flag down.

    A UO extraction skips its gather when no sender set a dirty bit since
    its last extraction of the phase; with this bug a BASP partition whose
    masters only changed by a drained reduce keeps its broadcast to itself
    (a BSP step still ships, since any write that round raises a flag and
    the step extracts every sender at once).  Caught by the FULL-level
    ``extract-differential`` comparison: the oracle reads the bits.
    """
    from repro.comm.gluon import GluonComm

    orig = GluonComm.apply_reduce

    def bad(self, field, batch, labels):
        before = [list(fresh) for fresh in self._fresh[field]]
        changed = orig(self, field, batch, labels)
        for fresh, old in zip(self._fresh[field], before):
            fresh[:] = old
        return changed

    return _planted(GluonComm, "apply_reduce", bad)


def dense_global_to_local():
    """Every partition keeps a ``|V|``-long global-to-local map: answers
    stay exact, the footprint does not.  Caught by ``partition-footprint``."""
    from repro.partition import base

    orig = base._build_exchange_lists

    def bad(parts, vertex_owner, master_local):
        orig(parts, vertex_owner, master_local)
        for part in parts:
            part.__dict__["global_to_local"] = np.full(len(vertex_owner), -1)

    return _planted(base, "_build_exchange_lists", bad)


#: name -> context manager, for the self-test CLI and the pytest suite
MUTATIONS = {
    "drop-mirror-update": drop_mirror_update,
    "sendtable-offset-skew": sendtable_offset_skew,
    "skip-reduce-partner": skip_reduce_partner,
    "stale-partition-cache": stale_partition_cache,
    "cc-wrong-tiebreak": cc_wrong_tiebreak,
    "bitset-clear-off-by-one": bitset_clear_off_by_one,
    "la-semiring-identity": la_semiring_identity,
    "batch-receiver-skew": batch_receiver_skew,
    "pull-workspace-stale-tail": pull_workspace_stale_tail,
    "expand-drops-last-edge": expand_drops_last_edge,
    "operator-emits-minus-one": operator_emits_minus_one,
    "extract-skip-misses-reduce": extract_skip_misses_reduce,
    "dense-global-to-local": dense_global_to_local,
}


def detection_candidates():
    """The small case battery the self-test runs under every mutation.

    The battery is deliberately diverse: a *path under IEC* makes a lost
    mirror update fatal (the frontier must cross a partition boundary
    through a broadcast-fed src proxy, so the answer breaks rather than
    merely drifting), an R-MAT cell exercises the dense plan/table
    structure, a symmetric CC cell is the only one the tie-break
    mutation can touch, a dense bfs-do cell pulls from round one —
    the only cell a poisoned semiring identity can reach — and a pr cell
    is the only one that runs the plus-times pull.  The last four reach
    the expansion's gather branch (a scattered frontier): a 64-vertex
    R-MAT through kcore's peel, the bfs push and bfs-do's pull step, and
    a path whose engine frontiers are single vertices but whose inserted
    chord seeds the serve delta sweep with two.  The last runs BASP,
    whose local round extracts one sender: the one cell where a single
    clean sender skips its gather.
    """
    from repro.fuzz.cases import Case
    from repro.fuzz.gen import build_shape, dense_graph
    from repro.generators.rmat import rmat as rmat_graph
    from repro.graph.builder import from_edges
    from repro.graph.transform import add_random_weights, make_undirected

    rng = np.random.default_rng(11)
    rmat = build_shape("rmat", rng)
    sym = add_random_weights(make_undirected(rmat), seed=2)
    n = 24
    path = add_random_weights(
        from_edges(np.arange(n - 1), np.arange(1, n), num_vertices=n,
                   name="mut-path"),
        seed=3,
    )
    dense = dense_graph(8, seed=5)
    rmat64 = add_random_weights(rmat_graph(6, edge_factor=3, seed=3), seed=3)
    chord = [{"timestamp": 1, "insert": [[5, 20]], "delete": []}]
    return [
        Case.from_graph(path, app="bfs", policy="iec", parts=4,
                        engine="bsp", shape="path"),
        Case.from_graph(rmat, app="bfs", policy="oec", parts=4,
                        engine="bsp", shape="rmat"),
        Case.from_graph(sym, app="cc", policy="oec", parts=4,
                        engine="bsp", shape="rmat-sym"),
        Case.from_graph(dense, app="bfs-do", policy="oec", parts=4,
                        engine="bsp", shape="dense"),
        Case.from_graph(rmat, app="pr", policy="oec", parts=4,
                        engine="bsp", shape="rmat"),
        Case.from_graph(make_undirected(rmat64), app="kcore", policy="oec",
                        parts=4, engine="bsp", shape="rmat64-sym"),
        Case.from_graph(rmat64, app="bfs", policy="oec", parts=4,
                        engine="bsp", shape="rmat64"),
        Case.from_graph(rmat64, app="bfs-do", policy="oec", parts=4,
                        engine="bsp", shape="rmat64"),
        Case.from_graph(path, app="bfs", policy="oec", parts=4,
                        engine="bsp", shape="path", mutations=chord),
        Case.from_graph(rmat64, app="bfs", policy="cvc", parts=4,
                        engine="basp", shape="rmat64"),
    ]


def run_candidates(mutation, candidates=None) -> bool:
    """Replay the battery under ``mutation``; True iff any cell fails.

    Each candidate re-enters the context manager so one-shot mutations
    (the lost mirror update) are re-armed for every cell, and the
    partition cache is rebuilt in between.
    """
    from dataclasses import replace

    from repro.fuzz.cases import run_case

    for case in candidates or detection_candidates():
        with mutation():
            try:
                run_case(case, check="full")
                # staleness only shows on a second, different request
                run_case(replace(case, parts=2), check="full")
            except Exception:  # the failure oracle: any exception is a finding
                return True
    return False

"""Unit tests for the runtime invariant checkers (repro.check).

Positive direction: real structures pass at FULL.  Negative direction:
each checker fires on a deliberately corrupted structure — a checker
that cannot fail protects nothing (the fuzz-harness mutation suite
covers the end-to-end routes; these tests pin the unit contracts).
"""

import numpy as np
import pytest

from repro.check import (
    CheckLevel,
    MonotoneWatch,
    check_comm_structure,
    check_final_stats,
    check_partition,
    check_partition_request,
    check_post_sync,
    check_round_record,
    current_check_level,
    parse_check_level,
    use_check_level,
)
from repro.comm import CommConfig, FieldSpec, GluonComm
from repro.errors import ConfigurationError, InvariantViolation
from repro.generators.rmat import rmat
from repro.metrics.stats import RoundRecord
from repro.partition import POLICIES, partition


@pytest.fixture(scope="module")
def graph():
    from repro.graph.transform import add_random_weights

    return add_random_weights(rmat(6, edge_factor=8, seed=5), seed=0)


def fresh_pg(graph, policy="cvc", parts=4):
    pg = partition(graph, policy, parts, cache=False)
    pg.__dict__.pop("_check_level_done", None)
    return pg


# --------------------------------------------------------------------- #
# levels
# --------------------------------------------------------------------- #
def test_parse_levels():
    assert parse_check_level("off") is CheckLevel.OFF
    assert parse_check_level("cheap") is CheckLevel.CHEAP
    assert parse_check_level("full") is CheckLevel.FULL
    assert parse_check_level(CheckLevel.FULL) is CheckLevel.FULL
    assert parse_check_level(2) is CheckLevel.FULL
    assert not CheckLevel.OFF  # zero-overhead guards rely on falsiness
    assert CheckLevel.CHEAP and CheckLevel.FULL


def test_parse_level_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_check_level("loud")
    with pytest.raises(ConfigurationError):
        parse_check_level(7)


def test_use_check_level_scopes_ambient():
    assert current_check_level() is CheckLevel.OFF
    with use_check_level("full"):
        assert current_check_level() is CheckLevel.FULL
        with use_check_level("cheap"):
            assert current_check_level() is CheckLevel.CHEAP
        assert current_check_level() is CheckLevel.FULL
    assert current_check_level() is CheckLevel.OFF


# --------------------------------------------------------------------- #
# partition checkers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_passes_full(graph, policy):
    check_partition(fresh_pg(graph, policy), CheckLevel.FULL)


def test_partition_check_memoized(graph):
    pg = fresh_pg(graph)
    check_partition(pg, CheckLevel.FULL)
    # corrupt after the check: the memo stamp must skip the recheck...
    part = next(p for p in pg.parts if not p.is_master.all())
    victim = int(np.flatnonzero(~part.is_master)[0])
    part.is_master[victim] = True
    check_partition(pg, CheckLevel.FULL)  # stamped: no raise
    # ...and a fresh stamp must catch the corruption
    pg.__dict__.pop("_check_level_done")
    with pytest.raises(InvariantViolation):
        check_partition(pg, CheckLevel.FULL)


def test_master_flag_corruption_detected(graph):
    pg = fresh_pg(graph)
    part = next(p for p in pg.parts if not p.is_master.all())
    part.is_master[int(np.flatnonzero(~part.is_master)[0])] = True
    with pytest.raises(InvariantViolation):
        check_partition(pg, CheckLevel.CHEAP)


def test_exchange_order_corruption_detected(graph):
    pg = fresh_pg(graph)
    part = next(
        p for p in pg.parts
        if any(len(v) > 1 for v in p.mirror_exchange.values())
    )
    q = next(k for k, v in part.mirror_exchange.items() if len(v) > 1)
    part.mirror_exchange[q] = part.mirror_exchange[q][::-1].copy()
    with pytest.raises(InvariantViolation):
        check_partition(pg, CheckLevel.CHEAP)


def test_partition_request_mismatch_detected(graph):
    pg = fresh_pg(graph, "oec", 4)
    check_partition_request(pg, "oec", 4)
    with pytest.raises(InvariantViolation) as exc:
        check_partition_request(pg, "oec", 2)
    assert exc.value.checker == "partition-request"
    with pytest.raises(InvariantViolation):
        check_partition_request(pg, "iec", 4)


def test_edge_multiset_corruption_detected(graph):
    pg = fresh_pg(graph)
    part = next(p for p in pg.parts if p.graph.num_edges > 0)
    indices = part.graph.indices
    indices.setflags(write=True)  # CSR arrays are frozen; corrupt in place
    indices[0] = (indices[0] + 1) % part.num_local
    with pytest.raises(InvariantViolation):
        check_partition(pg, CheckLevel.FULL)


# --------------------------------------------------------------------- #
# comm checkers
# --------------------------------------------------------------------- #
def _bfs_field():
    return FieldSpec(name="dist", dtype=np.uint32, reduce_op="min",
                     read_at="src", write_at="dst",
                     identity=np.iinfo(np.uint32).max)


def test_comm_structure_passes_and_detects_table_skew(graph):
    pg = fresh_pg(graph)
    comm = GluonComm(pg, [_bfs_field()], CommConfig(), check="cheap")
    # constructed clean at CHEAP; now skew an exchange-table offset
    table = comm._tables["dist"][0]
    table.seg_off[-1] += 1
    pg.__dict__.pop("_gluon_plans_checked", None)
    with pytest.raises(InvariantViolation) as exc:
        check_comm_structure(comm)
    assert exc.value.checker == "send-table"
    # ... and a flat position that leaves its sender's slice
    table.seg_off[-1] -= 1
    table.glob_send[0] += comm.base[-1]
    pg.__dict__.pop("_gluon_plans_checked", None)
    with pytest.raises(InvariantViolation, match="glob_send") as exc:
        check_comm_structure(comm)
    assert exc.value.checker == "send-table"


def test_post_sync_dominance_detected(graph):
    pg = fresh_pg(graph)
    comm = GluonComm(pg, [_bfs_field()], CommConfig(), check="off")
    labels = [
        np.full(p.num_local, 7, dtype=np.uint32) for p in pg.parts
    ]
    check_post_sync(comm, "dist", labels)  # uniform: trivially dominated
    (r, m), plan = next(iter(sorted(comm._table("dist", "reduce").plans.items())))
    labels[r][plan.send_idx[0]] = 0  # mirror below its master: min broken
    with pytest.raises(InvariantViolation) as exc:
        check_post_sync(comm, "dist", labels)
    assert exc.value.checker.startswith("post-sync")


def test_field_identity_neutrality_detected(graph):
    pg = fresh_pg(graph, "oec", 2)
    bad = FieldSpec(name="acc", dtype=np.float64, reduce_op="add",
                    read_at="src", write_at="dst", identity=1.0,
                    reset_after_reduce=True)
    with pytest.raises(InvariantViolation) as exc:
        GluonComm(pg, [bad], CommConfig(), check="cheap")
    assert exc.value.checker == "field-identity"


# --------------------------------------------------------------------- #
# engine checkers
# --------------------------------------------------------------------- #
def _record(**over):
    base = dict(
        round_index=0, active_vertices=3, edges_processed=9, messages=2,
        comm_bytes=64.0, compute_times=np.asarray([0.1, 0.2]),
        wait_times=np.asarray([0.0, 0.1]),
        device_comm_times=np.asarray([0.01, 0.01]), duration=0.5,
    )
    base.update(over)
    return RoundRecord(**base)


def test_round_record_passes_then_fires():
    check_round_record(_record())
    with pytest.raises(InvariantViolation):
        check_round_record(_record(compute_times=np.asarray([-0.1, 0.2])))
    with pytest.raises(InvariantViolation):
        check_round_record(_record(duration=0.05))  # < slowest compute
    with pytest.raises(InvariantViolation):
        check_round_record(_record(messages=-1))
    with pytest.raises(InvariantViolation):
        check_round_record(_record(duration=float("nan")))


def test_final_stats_checker(graph):
    from repro.apps import get_app
    from repro.engine import BSPEngine, RunContext
    from repro.hw import bridges

    pg = fresh_pg(graph, "oec", 2)
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        source=int(np.argmax(graph.out_degrees())),
    )
    res = BSPEngine(pg, bridges(2), get_app("bfs"), check_memory=False).run(ctx)
    check_final_stats(res.stats)
    res.stats.execution_time = -1.0
    with pytest.raises(InvariantViolation):
        check_final_stats(res.stats)
    res.stats.execution_time = 1.0
    res.stats.local_rounds_min = res.stats.local_rounds_max + 1
    with pytest.raises(InvariantViolation):
        check_final_stats(res.stats)


@pytest.mark.parametrize("engine_name", ["bsp", "basp"])
def test_static_frontier_is_priced_once_and_its_declaration_checked(
    graph, engine_name, monkeypatch
):
    """pr declares ``static_frontier``: its compute phase is priced once
    per partition per run, and at CHEAP a frontier object that changes
    between rounds breaks the declaration."""
    from repro.apps import get_app
    from repro.apps.pagerank import PageRankPull
    from repro.engine import BASPEngine, BSPEngine, RunContext
    from repro.hw import bridges
    from repro.loadbalance.base import LoadBalancer

    engine = {"bsp": BSPEngine, "basp": BASPEngine}[engine_name]
    pg = fresh_pg(graph, "cvc", 4)
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        global_out_degrees=graph.out_degrees(), tolerance=1e-2,
    )
    priced = []
    raw = LoadBalancer.cost
    monkeypatch.setattr(
        LoadBalancer, "cost",
        lambda self, degrees, blocks: priced.append(1) or raw(self, degrees, blocks),
    )
    res = engine(pg, bridges(4), get_app("pr"), check_memory=False,
                 check="cheap").run(ctx)
    assert res.stats.rounds > 2 and len(priced) == 4

    fresh = PageRankPull.initial_frontier
    monkeypatch.setattr(
        PageRankPull, "initial_frontier",
        lambda self, part, ctx, state: fresh(self, part, ctx, state).copy(),
    )
    with pytest.raises(InvariantViolation) as exc:
        engine(pg, bridges(4), get_app("pr"), check_memory=False,
               check="cheap").run(ctx)
    assert exc.value.checker == "static-frontier"


@pytest.mark.parametrize("engine_name", ["bsp", "basp"])
def test_field_views_and_operator_ids_are_checked(graph, engine_name, monkeypatch):
    """A field's state arrays are views of one flat array and operators
    report local ids: at CHEAP a rebound array fails ``field-views`` at
    tear-down and a ``-1`` (``global_to_local``'s "not here", which NumPy
    would wrap to the last proxy) fails ``operator-ids`` where it is
    reported."""
    from repro.apps import get_app
    from repro.apps.bfs import BFS
    from repro.engine import BASPEngine, BSPEngine, RunContext
    from repro.hw import bridges

    engine = {"bsp": BSPEngine, "basp": BASPEngine}[engine_name]
    pg = fresh_pg(graph, "cvc", 4)
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        source=int(np.argmax(graph.out_degrees())),
    )

    def run(check):
        return engine(pg, bridges(4), get_app("bfs"), check_memory=False,
                      check=check).run(ctx)

    run("cheap")  # the shipped operator passes both
    raw = BFS.compute

    def rebinding(self, part, ctx, state, frontier):
        out = raw(self, part, ctx, state, frontier)
        state["dist"] = state["dist"].copy()
        return out

    def foreign(self, part, ctx, state, frontier):
        out = raw(self, part, ctx, state, frontier)
        return out._replace(activated=np.append(out.activated, -1))

    for bad, checker in ((rebinding, "field-views"), (foreign, "operator-ids")):
        monkeypatch.setattr(BFS, "compute", bad)
        with pytest.raises(InvariantViolation) as exc:
            run("cheap")
        assert exc.value.checker == checker


def test_monotone_watch():
    watch = MonotoneWatch([_bfs_field()], num_partitions=2)
    assert sorted(watch._direction) == ["dist"]
    views = {"dist": [np.asarray([9, 9]), np.asarray([9, 9])]}
    watch.observe(views)
    views["dist"][0] = np.asarray([3, 9])  # decreasing: fine for min
    watch.observe(views)
    views["dist"][0] = np.asarray([3, 9])
    views["dist"][1] = np.asarray([9, 12])  # increased: violation
    with pytest.raises(InvariantViolation) as exc:
        watch.observe(views)
    assert exc.value.checker == "label-monotonicity"


def test_monotone_watch_skips_accumulators():
    acc = FieldSpec(name="resid", dtype=np.float64, reduce_op="add",
                    read_at="src", write_at="dst", identity=0.0,
                    reset_after_reduce=True)
    watch = MonotoneWatch([acc, _bfs_field()], num_partitions=1)
    assert sorted(watch._direction) == ["dist"]  # add/reset fields exempt


# --------------------------------------------------------------------- #
# end to end: a checked run is identical to an unchecked one
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine_name", ["bsp", "basp"])
def test_checked_run_matches_unchecked(graph, engine_name):
    from repro.apps import get_app
    from repro.engine import BASPEngine, BSPEngine, RunContext
    from repro.hw import bridges

    cls = {"bsp": BSPEngine, "basp": BASPEngine}[engine_name]
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        source=int(np.argmax(graph.out_degrees())),
    )
    pg = partition(graph, "cvc", 4, cache=False)
    plain = cls(pg, bridges(4), get_app("sssp"), check_memory=False).run(ctx)
    pg.__dict__.pop("_check_level_done", None)
    checked = cls(
        pg, bridges(4), get_app("sssp"), check_memory=False, check="full"
    ).run(ctx)
    assert np.array_equal(plain.labels, checked.labels)
    assert plain.stats.rounds == checked.stats.rounds

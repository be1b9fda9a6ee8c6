"""Out-of-core pipeline units: mmap/ram bit-identity, blocked streaming
kernels, the study config/gate logic, and the RSS meter.

The headline acceptance run (``bench_regression.py --only ooc``) proves
the pipeline at scale; this suite pins the individual guarantees it
leans on — most importantly that serving a graph through ``np.memmap``
changes *nothing* observable: every fuzz shape, under both engines,
must produce bit-identical labels and stats whether the store is opened
``ram`` or ``mmap``, and the blocked frontier expansion the workers use
must replay the unblocked elementwise order exactly.
"""

import os

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.fuzz.gen import SHAPES, build_shape
from repro.generators import rmat
from repro.generators.chunked import build_store
from repro.graph import order
from repro.graph.csr import CSRGraph
from repro.graph.expand import (
    DEFAULT_BLOCK_EDGES,
    block_edge_budget,
    expand_edges,
    expand_edges_blocks,
)
from repro.graph.store import open_csr, write_csr_store
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import bridges
from repro.idset import merge_touched
from repro.partition import partition
from repro.runtime.rss import RssSampler, read_rss_anon
from repro.study.ooc import OocConfig, OocReport, _build_big_store, evaluate
from tests.test_sync_golden import result_row

ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}


# --------------------------------------------------------------------- #
# mmap vs RAM bit-identity
# --------------------------------------------------------------------- #


def _run(graph: CSRGraph, app_name: str, engine: str,
         policy: str = "iec", parts: int = 2):
    app = get_app(app_name)
    if app.needs_symmetric:
        graph = make_undirected(graph)
    degrees = graph.out_degrees()
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        source=int(np.argmax(degrees)) if graph.num_vertices else 0,
        k=2,
        global_out_degrees=degrees,
        global_degrees=degrees,
    )
    pg = partition(graph, policy, parts, cache=False)
    eng = ENGINES[engine](
        pg, bridges(parts), app,
        comm_config=CommConfig(update_only=True),
        check_memory=False,
    )
    return eng.run(ctx)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_mmap_vs_ram_bit_identical(shape, engine, tmp_path):
    """Every fuzz shape, both engines: the storage mode must be invisible."""
    g = build_shape(shape, np.random.default_rng(11))
    path = str(tmp_path / "g.csr")
    write_csr_store(g, path)
    for app_name in ("bfs", "pr"):
        r_ram = _run(open_csr(path, mode="ram"), app_name, engine)
        r_mmap = _run(open_csr(path, mode="mmap"), app_name, engine)
        np.testing.assert_array_equal(
            r_ram.labels, r_mmap.labels, err_msg=f"{app_name} labels"
        )
        assert r_ram.stats.rounds == r_mmap.stats.rounds, app_name
        assert r_ram.stats.num_messages == r_mmap.stats.num_messages
        assert r_ram.stats.work_items == r_mmap.stats.work_items


def test_la_kernel_cell_mmap_matches_ram(tmp_path):
    """One study cell end to end through both storage modes."""
    from repro.runtime.cells import CellSpec, SystemSpec, run_task

    path = str(tmp_path / "la.csr")
    build_store("rmat", 8, path, seed=5)
    outcomes = {}
    for mode in ("ram", "mmap"):
        out = run_task(CellSpec(
            key=(mode,),
            system=SystemSpec.dirgl(policy="iec", execution="sync"),
            benchmark="pr-push",
            dataset=f"store+{mode}:{path}",
            num_gpus=2,
            check_memory=False,
        ))
        assert out.ok, out.failure
        outcomes[mode] = out
    assert outcomes["ram"].labels_crc == outcomes["mmap"].labels_crc
    assert outcomes["ram"].stats.rounds == outcomes["mmap"].stats.rounds


# --------------------------------------------------------------------- #
# blocked streaming kernels
# --------------------------------------------------------------------- #


def _frontiers(g: CSRGraph):
    yield np.arange(g.num_vertices, dtype=np.int64)
    yield np.arange(0, g.num_vertices, 2, dtype=np.int64)
    yield np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("budget", [1, 3, 17, None])
def test_expand_frontier_blocks_concatenates_to_unblocked(budget, monkeypatch):
    if budget is None:
        monkeypatch.delenv("REPRO_BLOCK_EDGES", raising=False)
    else:
        monkeypatch.setenv("REPRO_BLOCK_EDGES", str(budget))
    g = build_shape("rmat", np.random.default_rng(3))
    for frontier in _frontiers(g):
        counts, dsts, w = expand_edges(g, frontier, with_weights=True)
        blocks = list(
            expand_edges_blocks(g, frontier, with_weights=True)
        )
        if len(frontier) == 0:
            assert blocks == []
            continue
        # block-local counts spell out the same per-edge global sources
        np.testing.assert_array_equal(
            np.concatenate([np.repeat(blk, c) for blk, c, _, _ in blocks]),
            np.repeat(frontier, counts),
        )
        np.testing.assert_array_equal(
            np.concatenate([d for _, _, d, _ in blocks]), dsts
        )
        np.testing.assert_array_equal(
            np.concatenate([bw for _, _, _, bw in blocks]), w
        )
        # frontier slices are contiguous and complete
        np.testing.assert_array_equal(
            np.concatenate([blk for blk, _, _, _ in blocks]), frontier
        )
        if budget is not None:
            for blk, _, d, _ in blocks:
                assert len(d) <= budget or len(blk) == 1


def test_block_edge_budget_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_BLOCK_EDGES", raising=False)
    assert block_edge_budget() == DEFAULT_BLOCK_EDGES
    monkeypatch.setenv("REPRO_BLOCK_EDGES", "4096")
    assert block_edge_budget() == 4096


def _assert_budget_invisible(monkeypatch, budget, graph, app_name, engine,
                             **cell):
    monkeypatch.delenv("REPRO_BLOCK_EDGES", raising=False)
    base = _run(graph, app_name, engine, **cell)
    monkeypatch.setenv("REPRO_BLOCK_EDGES", str(budget))
    blocked = _run(graph, app_name, engine, **cell)
    assert base.labels.tobytes() == blocked.labels.tobytes()
    assert result_row(base) == result_row(blocked)


@pytest.mark.parametrize("app_name", ["bfs", "pr-push"])
def test_blocked_apps_identical_to_default(monkeypatch, app_name):
    """The two out-of-core apps on one mid-sized shape, budget 5."""
    g = build_shape("powerlaw", np.random.default_rng(8))
    _assert_budget_invisible(monkeypatch, 5, g, app_name, "bsp")


@pytest.mark.parametrize("app_name", ["bfs", "sssp", "cc", "pr-push"])
def test_block_budget_never_changes_results(monkeypatch, app_name):
    """Not the labels, and not one ``RunStats`` field: ``spmsv_push``
    reads its source values before the first block scatters, so a round
    relaxes the same edges however it is cut.  (A kernel that re-reads
    ``dist`` per block finds some destinations already improved by an
    earlier block of the same round and reports one work item fewer on
    the rmat cell below.)"""
    # the fuzz shapes have a handful of edges, so nearly every round is
    # several blocks at a budget of 2
    for shape in sorted(SHAPES):
        g = build_shape(shape, np.random.default_rng(11))
        for engine in sorted(ENGINES):
            _assert_budget_invisible(monkeypatch, 2, g, app_name, engine)
    g = add_random_weights(rmat(14, 8, seed=5), seed=0)
    _assert_budget_invisible(
        monkeypatch, 16, g, app_name, "basp", policy="cvc", parts=4
    )


def test_pr_cell_ignores_pull_blocking_and_executor(monkeypatch):
    """The pull plan gathers in row blocks of ``REPRO_BLOCK_EDGES`` into
    one workspace per partition: neither the budget nor the compute
    executor may reach a label bit, a count or the simulated time."""
    from repro.runtime.cells import CellSpec, SystemSpec, run_task

    prints = {"sync": set(), "async": set()}
    for budget in (None, 64, 7, 1):
        if budget is None:
            monkeypatch.delenv("REPRO_BLOCK_EDGES", raising=False)
        else:
            monkeypatch.setenv("REPRO_BLOCK_EDGES", str(budget))
        for execution, seen in prints.items():
            for executor in ("serial", "threads"):
                out = run_task(CellSpec(
                    key=(budget, execution, executor),
                    system=SystemSpec.dirgl(policy="cvc", execution=execution),
                    benchmark="pr",
                    dataset="fuzz:smallworld:1",  # 27 vertices, 108 edges
                    num_gpus=4,
                    engine_executor=executor,
                    check_memory=False,
                ))
                assert out.ok, out.failure
                st = out.stats
                seen.add((out.labels_crc, st.rounds, st.num_messages,
                          st.work_items, st.execution_time))
    assert [len(seen) for seen in prints.values()] == [1, 1], prints


def test_merge_touched():
    assert merge_touched([], 4).dtype == np.int64
    assert len(merge_touched([], 4)) == 0
    one = np.array([3, 1, 1])
    assert merge_touched([one], 4) is one  # single part passes through
    # n = 4 takes the flag-array side of unique_ids, n = 10**6 the sort
    for n in (4, 10**6):
        merged = merge_touched([np.array([3, 1]), np.array([2, 3])], n)
        np.testing.assert_array_equal(merged, [1, 2, 3])


def test_blocked_in_degrees_matches_bincount(monkeypatch):
    g = build_shape("gnm", np.random.default_rng(5))
    ref = np.bincount(np.asarray(g.indices), minlength=g.num_vertices)
    monkeypatch.setattr(order, "SCAN_BLOCK", 3)
    np.testing.assert_array_equal(
        build_shape("gnm", np.random.default_rng(5)).in_degrees(), ref
    )


def test_content_hash_ignores_storage_mode(tmp_path):
    g = build_shape("rmat", np.random.default_rng(2))
    path = str(tmp_path / "g.csr")
    write_csr_store(g, path)
    assert (
        g.content_hash()
        == open_csr(path, "ram").content_hash()
        == open_csr(path, "mmap").content_hash()
    )


# --------------------------------------------------------------------- #
# study config and gate
# --------------------------------------------------------------------- #


def test_ooc_config_scale_sizes_the_store():
    for cap, mult, ef in [(48.0, 4.0, 768.0), (8.0, 4.0, 768.0),
                          (64.0, 2.0, 128.0)]:
        cfg = OocConfig(ram_cap_mb=cap, size_multiple=mult, edge_factor=ef)
        edges = ef * (1 << cfg.scale)
        # 8 bytes/edge of store must reach the multiple; scale is minimal
        assert edges * 8 >= mult * cfg.ram_cap_bytes
        if cfg.scale > 10:
            assert ef * (1 << (cfg.scale - 1)) * 8 < mult * cfg.ram_cap_bytes


def test_ooc_config_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_OOC_RAM_CAP_MB", "12.5")
    monkeypatch.setenv("REPRO_OOC_RSS_TOL", "3")
    cfg = OocConfig.from_env(jobs=4)
    assert cfg.ram_cap_mb == 12.5
    assert cfg.rss_tol == 3.0
    assert cfg.jobs == 4
    assert cfg.wall_tol == OocConfig.wall_tol  # untouched default


@pytest.fixture()
def small_store(tmp_path):
    """A scale-10 big store, built once: (config, path, header)."""
    cfg = OocConfig(ram_cap_mb=0.01, size_multiple=1.0, edge_factor=8.0)
    assert cfg.scale == 10
    path, header, _ = _build_big_store(cfg, str(tmp_path))
    return cfg, path, header


def test_a_torn_big_store_is_rebuilt(small_store, tmp_path):
    cfg, path, header = small_store
    with open(path, "wb") as fh:
        fh.write(b"not a csr store")
    assert _build_big_store(cfg, str(tmp_path))[:2] == (path, header)


def test_a_loader_bug_is_not_mistaken_for_a_torn_store(
    small_store, tmp_path, monkeypatch
):
    """Only what the container reader raises for a torn or foreign file
    (``OSError``, ``GraphFormatError``) rebuilds the store; anything else
    propagates, and the file stays."""
    import repro.generators.chunked
    import repro.graph.store

    def broken(path):
        raise TypeError("loader bug")

    def rebuild(*args, **kwargs):
        raise AssertionError("a loader bug deleted and rebuilt the store")

    monkeypatch.setattr(repro.graph.store, "store_info", broken)
    monkeypatch.setattr(repro.generators.chunked, "build_store", rebuild)
    with pytest.raises(TypeError, match="loader bug"):
        _build_big_store(small_store[0], str(tmp_path))
    assert os.path.exists(small_store[1])


def _passing_report() -> OocReport:
    cfg = OocConfig(ram_cap_mb=1.0, size_multiple=2.0)
    return OocReport(
        config=cfg,
        store_bytes=4 * 1024 * 1024,
        cells={
            "bfs": {"ok": True, "failure": "", "rounds": 4,
                    "labels_crc": 111},
            "pr-push": {"ok": True, "failure": "", "rounds": 9,
                        "labels_crc": 222},
        },
        peak_rss_bytes=512 * 1024,
        small_wall={"ram": 1.0, "mmap": 1.1},
    )


def test_evaluate_passes_clean_report():
    assert evaluate(_passing_report()) == []


def test_evaluate_flags_each_violation():
    r = _passing_report()
    r.store_bytes = 1024
    assert any("below the required" in v for v in evaluate(r))

    r = _passing_report()
    r.cells["bfs"] = {"ok": False, "failure": "sim exploded", "rounds": None,
                      "labels_crc": None}
    assert any("sim exploded" in v for v in evaluate(r))

    r = _passing_report()
    r.peak_rss_bytes = 2 * 1024 * 1024
    assert any("exceeds cap" in v for v in evaluate(r))

    r = _passing_report()
    r.small_wall = {"ram": 1.0, "mmap": 2.0}
    assert any("mmap wall" in v for v in evaluate(r))


# --------------------------------------------------------------------- #
# RSS meter
# --------------------------------------------------------------------- #


def test_read_rss_anon():
    rss, source = read_rss_anon()
    assert rss > 0
    assert source in ("RssAnon", "VmRSS", "ru_maxrss")


def test_rss_sampler_sees_a_large_allocation():
    import mmap

    # A raw PRIVATE anonymous map, not np.ones: after earlier tests have
    # grown the heap, malloc can hand back already-resident freed pages
    # and RssAnon would not move — and mmap's MAP_SHARED default counts
    # as RssShmem, not RssAnon.  Fresh private pages always fault in new.
    with RssSampler(interval=0.002) as s:
        block = mmap.mmap(
            -1, 32 * 1024 * 1024,
            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS,
        )
        block.write(b"\x01" * len(block))  # touch every page
        s.sample_now()
        block.close()
    r = s.result
    assert r is not None
    assert r.samples >= 2
    assert r.peak >= r.baseline
    assert r.peak_increment >= 16 * 1024 * 1024
    assert r.source in ("RssAnon", "VmRSS", "ru_maxrss")


def test_rss_sampler_thread_failure_is_raised_by_stop(monkeypatch):
    """A sampler whose thread died has an unmeasured peak: stop() says so
    instead of returning the readings taken before the death."""
    import time

    from repro.runtime import rss as rss_mod

    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 3:
            raise TypeError("meter broke")
        return read_rss_anon()

    monkeypatch.setattr(rss_mod, "read_rss_anon", flaky)
    s = RssSampler(interval=0.001).start()  # call 1
    deadline = time.monotonic() + 10
    while len(calls) < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    with pytest.raises(TypeError, match="meter broke"):
        s.stop()
    assert s.result is None

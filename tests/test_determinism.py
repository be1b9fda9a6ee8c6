"""Golden determinism suite: two identical runs must be bit-identical.

The engines are deterministic discrete-event simulations; the vectorized
comm substrate must preserve that.  For every study app under BSP and
BASP, two runs built from scratch (fresh graphs, partitions, plan caches,
and engines) must produce identical labels, round counts, and the full
:class:`RunStats` record.  Any divergence means ordering leaked in — a
dict iteration, an unstable sort, or a float reassociation.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import bridges
from repro.partition import partition

APPS = ("bfs", "cc", "kcore", "pr", "sssp")
ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}


def _one_run(app_name: str, engine: str, executor: str = "serial"):
    """Build everything from scratch and run once."""
    g = add_random_weights(rmat(9, edge_factor=8, seed=3), seed=0)
    sym = add_random_weights(make_undirected(g), seed=1)
    app = get_app(app_name)
    base = sym if app.needs_symmetric else g
    ctx = RunContext(
        num_global_vertices=base.num_vertices,
        source=int(np.argmax(base.out_degrees())),
        k=8,
        global_out_degrees=base.out_degrees(),
        global_degrees=sym.out_degrees(),
    )
    pg = partition(base, "cvc", 4, cache=False)
    eng = ENGINES[engine](
        pg, bridges(4), app,
        comm_config=CommConfig(update_only=True),
        check_memory=False,
        executor=executor,
    )
    return eng.run(ctx)


def _assert_stats_identical(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb, err_msg=f.name)
        else:
            assert va == vb, f"{f.name}: {va!r} != {vb!r}"


def _assert_results_identical(r1, r2):
    np.testing.assert_array_equal(r1.labels, r2.labels)
    assert r1.stats.rounds == r2.stats.rounds
    _assert_stats_identical(r1.stats, r2.stats)
    assert set(r1.extra) == set(r2.extra)
    for k in r1.extra:
        np.testing.assert_array_equal(r1.extra[k], r2.extra[k])


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("app", APPS)
def test_two_runs_identical(app, engine):
    _assert_results_identical(_one_run(app, engine), _one_run(app, engine))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("app", APPS)
def test_threads_executor_bit_identical(app, engine):
    """The threaded compute phase must not change a single stats field:
    per-partition outputs are merged in pid order regardless of which
    thread finished first."""
    _assert_results_identical(
        _one_run(app, engine), _one_run(app, engine, executor="threads")
    )


def test_threads_write_disjoint_slices_of_one_flat_array():
    """Every partition's state is a view of one flat array per field, so
    the threaded compute phase has P threads writing one buffer.  The
    slices are disjoint: under a switch interval short enough to
    interleave the threads inside every kernel (and more partitions than
    this host has cores) no write may be lost."""
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _one_run("pr-push", "bsp", executor="threads")
    finally:
        sys.setswitchinterval(interval)
    _assert_results_identical(_one_run("pr-push", "bsp"), threaded)


def test_sweep_process_pool_bit_identical():
    """The same study cells through jobs=1 and a 2-worker process pool
    must agree on every deterministic outcome field."""
    from repro.runtime.cells import CellSpec, SystemSpec
    from repro.runtime.sweep import SweepExecutor

    specs = [
        CellSpec(
            key=(name, bench),
            system=SystemSpec.variant(name),
            benchmark=bench,
            dataset="tiny-s",
            num_gpus=2,
            check_memory=False,
        )
        for name in ("var1", "var4")
        for bench in ("bfs", "pr")
    ]
    with SweepExecutor(jobs=1) as ex:
        serial = ex.map(specs)
    with SweepExecutor(jobs=2) as ex:
        pooled = ex.map(specs)
    assert [o.key for o in serial] == [o.key for o in pooled]
    for a, b in zip(serial, pooled):
        assert a.ok and b.ok
        assert a.labels_crc == b.labels_crc, a.key
        assert a.stats.execution_time == b.stats.execution_time, a.key
        assert a.stats.rounds == b.stats.rounds, a.key
        assert a.stats.comm_volume_bytes == b.stats.comm_volume_bytes, a.key

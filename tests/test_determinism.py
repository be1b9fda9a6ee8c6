"""Determinism: a run built from scratch reproduces its golden row.

The engines are deterministic discrete-event simulations; the vectorized
comm substrate must preserve that.  For every study app under BSP and
BASP, one run built from scratch (fresh graphs, partitions, plan caches,
and engines) must reproduce the ``matrix/{app}/cvc/4/{engine}/uo`` row of
the golden table ``sync``: labels, round counts and the full
:class:`RunStats` record.  Any
divergence means ordering leaked in — a dict iteration, an unstable sort,
or a float reassociation.
"""

import pytest

from tests import golden
from tests.test_sync_golden import ENGINES, Inputs, run_row

APPS = ("bfs", "cc", "kcore", "pr", "sssp")


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("app", APPS)
def test_two_runs_identical(app, engine):
    row = run_row(Inputs(), app, "cvc", 4, engine, True)
    key = f"matrix/{app}/cvc/4/{engine}/uo"
    assert golden.normalized(row) == golden.recorded("sync")[key]


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

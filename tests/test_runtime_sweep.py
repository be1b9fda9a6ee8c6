"""Tests for the sweep runtime: picklable cell specs, the worker-side
runner, the process-pool executor, and its fault-recovery paths (broken
pools, simulated crashes, real bugs)."""

import logging
import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    ConfigurationError,
    ConvergenceError,
    GraphFormatError,
    InvariantViolation,
    PartitioningError,
    ReproError,
    SimulatedCrashError,
    SimulatedOOMError,
    UnknownDatasetError,
    UnsupportedFeatureError,
)
from repro.fuzz.cases import CaseFailure
from repro.partition.cache import configure
from repro.runtime.cells import (
    CellOutcome,
    CellSpec,
    PartitionStatsSpec,
    SystemSpec,
    run_task,
)
from repro.runtime.sweep import SweepExecutor, default_start_method, run_cells


@pytest.fixture
def restore_global_cache():
    yield
    configure(cache_dir=None)


def _cell(key, bench="bfs", system=None, **kw):
    return CellSpec(
        key=key,
        system=system or SystemSpec.dirgl(policy="iec"),
        benchmark=bench,
        dataset="tiny-s",
        num_gpus=2,
        check_memory=False,
        **kw,
    )


class TestSystemSpec:
    def test_variant_builds(self):
        fw = SystemSpec.variant("var1", "cvc").build()
        assert hasattr(fw, "run")

    def test_dirgl_builds_with_kwargs(self):
        fw = SystemSpec.dirgl(policy="oec", execution="sync").build()
        assert fw.policy == "oec"

    def test_framework_builds_from_registry(self):
        fw = SystemSpec.framework("lux").build()
        assert hasattr(fw, "run")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown SystemSpec kind"):
            SystemSpec("nonsense").build()

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = _cell(("a", 1))
        assert pickle.loads(pickle.dumps(spec)) == spec
        hash(spec.system)


class TestRunTask:
    def test_cell_outcome_fields(self):
        out = run_task(_cell("k1"))
        assert out.ok
        assert out.key == "k1"
        assert out.stats is not None
        assert out.pstats is None
        assert isinstance(out.labels_crc, int)
        assert out.labels is None  # not kept unless asked
        assert out.elapsed > 0

    def test_keep_labels(self):
        out = run_task(_cell("k1", keep_labels=True))
        assert isinstance(out.labels, np.ndarray)

    def test_partition_stats_spec(self):
        out = run_task(
            PartitionStatsSpec(key="p1", dataset="tiny-s", policy="cvc", num_gpus=4)
        )
        assert out.ok
        assert out.pstats is not None
        assert out.pstats.num_partitions == 4
        assert out.stats is None

    def test_labels_crc_is_deterministic(self):
        a = run_task(_cell("x"))
        b = run_task(_cell("y"))
        assert a.labels_crc == b.labels_crc


#: Environment variable naming the append-only file where the logging
#: ``run_task`` wrapper below records every invocation (one key per line).
#: An env var + file survives the process boundary; a plain counter would
#: only count parent-side calls.
_RUN_LOG_ENV = "REPRO_TEST_RUN_LOG"


def _logging_run_task(spec):
    """Module-level (hence picklable-by-reference) ``run_task`` wrapper:
    logs each invocation, then dies hard for "kamikaze" cells — but only
    inside a pool worker, so the serial fallback completes them."""
    path = os.environ.get(_RUN_LOG_ENV)
    if path:
        with open(path, "a") as f:
            f.write(f"{spec.key}\n")
    if (
        str(spec.key).startswith("kamikaze")
        and multiprocessing.parent_process() is not None
    ):
        # give the sibling cells time to finish and be harvested first,
        # then die the way the OS OOM-killer would: no exception, no exit
        # handlers, just a dead worker and a BrokenProcessPool
        time.sleep(1.0)
        os._exit(1)
    return run_task(spec)


def _failed(err) -> CellOutcome:
    out = CellOutcome(key="k")
    out.fail(err)
    return out


def _repro_error_classes(cls=ReproError):
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield from _repro_error_classes(sub)


class TestFailureTaxonomy:
    def test_ok_outcome_does_not_raise(self):
        CellOutcome(key="k").raise_failure()

    def test_oom_rebuilds_original_exception(self):
        # SimulatedOOMError's __init__ takes (gpu_index, required_bytes,
        # capacity_bytes), not a message string: its __reduce__ says so
        out = _failed(SimulatedOOMError(3, 2**34, 2**33))
        with pytest.raises(SimulatedOOMError) as exc:
            out.raise_failure()
        assert exc.value.gpu_index == 3
        assert exc.value.required_bytes == 2**34
        assert out.failure_label().startswith("oom: ")

    def test_oom_without_args_degrades_to_repro_error(self):
        out = CellOutcome(key="k", failure="oom happened", failure_kind="oom")
        with pytest.raises(ReproError, match="oom happened"):
            out.raise_failure()

    def test_unsupported(self):
        out = CellOutcome(key="k", failure="no async", failure_kind="unsupported")
        with pytest.raises(UnsupportedFeatureError):
            out.raise_failure()
        assert out.failure_label() == "unsupported: no async"
        assert not out.ok

    def test_crash_rebuilds_original_exception(self):
        out = _failed(SimulatedCrashError(
            "GPU 2 crashed at round 5 (fault plan)", gpu_index=2, round_index=5
        ))
        with pytest.raises(SimulatedCrashError) as exc:
            out.raise_failure()
        assert exc.value.gpu_index == 2
        assert exc.value.round_index == 5
        assert out.failure_label().startswith("crash: ")
        assert not out.ok

    def test_crash_without_args_still_raises_crash_type(self):
        out = CellOutcome(key="k", failure="worker died", failure_kind="crash")
        with pytest.raises(SimulatedCrashError, match="worker died"):
            out.raise_failure()

    def test_generic_error(self):
        out = CellOutcome(key="k", failure="boom", failure_kind="error")
        with pytest.raises(ReproError):
            out.raise_failure()
        assert out.failure_label() == "boom"

    #: one instance of every error class the package defines, with the
    #: kind its cell records and the label a driver prints for it
    ROUND_TRIP = [
        (ReproError("boom"), "error", "boom"),
        (GraphFormatError("bad header"), "error", "bad header"),
        (PartitioningError("empty part"), "error", "empty part"),
        (CommunicationError("unplanned pair"), "error", "unplanned pair"),
        (ConvergenceError("round budget"), "error", "round budget"),
        (ConfigurationError("no such knob"), "error", "no such knob"),
        (UnknownDatasetError("unknown dataset 'nope'"), "error",
         "unknown dataset 'nope'"),
        (CaseFailure("labels differ"), "error", "labels differ"),
        (UnsupportedFeatureError("no async"), "unsupported",
         "unsupported: no async"),
        (InvariantViolation("two owners", checker="edge_ownership"),
         "invariant", "invariant: [edge_ownership] two owners"),
        (SimulatedOOMError(3, 2**34, 2**33), "oom",
         "oom: simulated OOM on GPU 3: needs 16.00 GiB > capacity 8.00 GiB"),
        (SimulatedCrashError("GPU 2 died", gpu_index=2, round_index=5),
         "crash", "crash: GPU 2 died"),
    ]

    def test_table_names_every_error_class(self):
        assert {type(e) for e, _, _ in self.ROUND_TRIP} == set(
            _repro_error_classes()
        )

    @pytest.mark.parametrize(
        "err, kind, label", ROUND_TRIP,
        ids=[type(e).__name__ for e, _, _ in ROUND_TRIP],
    )
    def test_every_error_round_trips_a_cell(self, monkeypatch, err, kind, label):
        """run_task -> raise_failure gives back the class, the message and
        every attribute; kind and label are what the drivers print."""
        from repro.generators import datasets

        def raising(name):
            raise err

        monkeypatch.setattr(datasets, "load_dataset", raising)
        out = run_task(_cell("k"))
        assert (out.failure_kind, out.failure_label()) == (kind, label)
        with pytest.raises(type(err)) as exc:
            out.raise_failure()
        assert type(exc.value) is type(err) and exc.value is not err
        assert str(exc.value) == str(err)
        assert vars(exc.value) == vars(err)


class TestAmbientState:
    """The executor installs process-wide state for its cells; closing it
    puts back what the constructor found."""

    def test_close_restores_cache_trace_dir_and_check_level(self, tmp_path):
        from repro import obs
        from repro.check import CheckLevel, current_check_level
        from repro.partition.cache import get_cache

        found = (get_cache(), obs.active_trace_dir(), current_check_level())
        assert found[1:] == (None, CheckLevel.OFF)
        cache_dir, trace_dir = str(tmp_path / "pcache"), str(tmp_path / "traces")
        with SweepExecutor(cache_dir=cache_dir, trace_dir=trace_dir, check="full"):
            assert get_cache().cache_dir == cache_dir
            assert obs.active_trace_dir() == trace_dir
            assert current_check_level() is CheckLevel.FULL
        now = (get_cache(), obs.active_trace_dir(), current_check_level())
        assert now[0] is found[0] and now[1:] == found[1:]

    def test_an_executor_that_changed_nothing_restores_nothing(
        self, tmp_path, restore_global_cache
    ):
        """Consecutive executors over the configured cache keep its
        in-memory LRU: the object is never swapped."""
        from repro.partition.cache import get_cache

        cache_dir = str(tmp_path / "pcache")
        mine = configure(cache_dir=cache_dir)
        for _ in range(2):
            with SweepExecutor(cache_dir=cache_dir) as ex:
                assert get_cache() is mine
                ex.map([_cell("a")])
            assert get_cache() is mine
        assert mine.stats.builds == 1 and mine.stats.memory_hits == 1

    def test_map_after_close_installs_the_state_again(self, tmp_path):
        from repro.partition.cache import get_cache

        found = get_cache()
        ex = SweepExecutor(cache_dir=str(tmp_path / "pcache"))
        ex.close()
        assert get_cache() is found
        out, = ex.map([_cell("a")])
        assert out.ok and get_cache().cache_dir == ex.cache_dir
        ex.close()
        assert get_cache() is found


def _worker_tracer_is_on() -> bool:
    from repro import obs

    return obs.current_tracer().enabled


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only a forked worker inherits the parent's ambient tracer",
)
def test_a_forked_worker_starts_with_tracing_off(tmp_path):
    """A forked worker would inherit the caller's tracer as a copy nobody
    exports, and ``run_task`` would record every span into it instead of
    owning a per-cell tracer.  The pool initializer installs the off state
    (the caller's own tracer stays where it is), so a worker traces a cell
    iff a trace directory is configured — and then it writes the file."""
    from repro import obs

    mine = obs.Tracer()
    cells = [_cell(("traced", i)) for i in range(4)]
    with obs.use_tracer(mine), SweepExecutor(
        jobs=2, start_method="fork", trace_dir=tmp_path
    ) as ex:
        assert ex._get_pool().submit(_worker_tracer_is_on).result(60) is False
        outs = ex.map(cells)
        assert obs.current_tracer() is mine
    assert all(o.ok for o in outs)
    assert {o.extra["worker_pid"] for o in outs}.isdisjoint({os.getpid()})
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(o.extra["trace_path"]) for o in outs
    )
    assert len(mine) == 0  # the workers' cells were never the caller's


def test_run_cells_equals_the_pooled_map_on_the_sweep_slice():
    """``run_cells(specs)`` — the one ``executor=None`` — gives, outcome
    for outcome, what a two-worker pool gives on a slice of the cells
    the ``gates`` table's ``sweep`` rows pin."""
    from benchmarks.perfbaseline import _sweep_record, sweep_specs

    specs = sweep_specs()
    specs = specs[:2] + specs[-1:]  # two partition-stats cells, one bfs run
    serial = run_cells(specs)
    with SweepExecutor(jobs=2) as ex:
        pooled = ex.map(specs)
    assert [o.key for o in serial] == [s.key for s in specs]
    for a, b in zip(serial, pooled):
        assert (a.key, a.failure_kind, a.failure) == (b.key, "", "")
        assert _sweep_record(a) == _sweep_record(b)
        assert a.labels_crc == b.labels_crc


class TestSweepExecutor:
    def test_serial_preserves_submission_order(self):
        specs = [_cell(i, bench=b) for i, b in enumerate(("cc", "bfs", "pr"))]
        with SweepExecutor(jobs=1) as ex:
            outs = ex.map(specs)
        assert [o.key for o in outs] == [0, 1, 2]
        assert all(o.ok for o in outs)

    def test_pool_preserves_submission_order(self):
        specs = [_cell(i, bench=b) for i, b in enumerate(("cc", "bfs", "pr"))]
        with SweepExecutor(jobs=2) as ex:
            outs = ex.map(specs)
        assert [o.key for o in outs] == [0, 1, 2]
        assert all(o.ok for o in outs)

    def test_single_spec_short_circuits_to_serial(self):
        with SweepExecutor(jobs=4) as ex:
            outs = ex.map([_cell("only")])
        assert ex._pool is None  # no pool was ever spun up
        assert outs[0].ok

    def test_close_is_idempotent(self):
        """Satellite regression: a second close() after close() (the
        serve loop's shutdown can overlap __exit__) must not raise."""
        ex = SweepExecutor(jobs=2)
        ex.map([_cell("a"), _cell("b", bench="cc")])
        ex.close()
        assert ex._pool is None
        ex.close()  # second close: no-op, no raise
        ex.close(cancel_futures=False)

    def test_exit_after_explicit_close_is_noop(self):
        with SweepExecutor(jobs=2) as ex:
            ex.map([_cell("a"), _cell("b", bench="cc")])
            ex.close()
        # __exit__ ran after close() without raising; pool stays gone
        assert ex._pool is None

    def test_map_after_close_reopens_cleanly(self):
        ex = SweepExecutor(jobs=2)
        ex.map([_cell("a"), _cell("b", bench="cc")])
        ex.close()
        outs = ex.map([_cell("c"), _cell("d", bench="cc")])
        assert all(o.ok for o in outs)
        ex.close()

    def test_engine_executor_stamped_onto_cells(self):
        ex = SweepExecutor(jobs=1, engine_executor="threads")
        cell = ex._prepare(_cell("c"))
        assert cell.engine_executor == "threads"
        # an explicit per-spec choice wins over the sweep-wide default
        explicit = _cell("c", engine_executor="threads")
        assert ex._prepare(explicit) is explicit
        # partition-stats specs run no engine and pass through untouched
        ps = PartitionStatsSpec(key="p", dataset="tiny-s", policy="cvc", num_gpus=2)
        assert ex._prepare(ps) is ps

    def test_cache_dir_shared_across_cells(self, tmp_path, restore_global_cache):
        store = str(tmp_path / "pcache")
        with SweepExecutor(jobs=1, cache_dir=store) as ex:
            first = ex.map([_cell("a"), _cell("b", bench="cc")])
            again = ex.map([_cell("c"), _cell("d", bench="cc")])
        assert all(o.ok for o in first + again)
        assert sum(o.partition_builds for o in first) >= 1
        # same dataset/policy/parts: nothing re-partitions on the rerun
        assert sum(o.partition_builds for o in again) == 0
        import os

        assert os.listdir(store)


class TestFaultRecovery:
    """The sweep's three failure paths: a worker killed by the OS, a
    simulated crash crossing the process boundary, and a real bug."""

    @pytest.mark.parametrize("shard_plan", [False, True])
    def test_broken_pool_keeps_completed_outcomes(
        self, tmp_path, monkeypatch, caplog, shard_plan
    ):
        if default_start_method() != "fork":
            pytest.skip("pool-side monkeypatching requires fork workers")
        import repro.runtime.cells as cells_mod
        import repro.runtime.sweep as sweep_mod

        run_log = tmp_path / "runs.log"
        monkeypatch.setenv(_RUN_LOG_ENV, str(run_log))
        # the pool is created lazily inside map(), so fork workers inherit
        # the patched modules and submit() pickles the wrapper by reference
        # (per-cell dispatch resolves ``run_task`` in sweep, a shard_plan
        # batch — [ok-0, ok-1] and [kamikaze] here — in cells)
        monkeypatch.setattr(sweep_mod, "run_task", _logging_run_task)
        monkeypatch.setattr(cells_mod, "run_task", _logging_run_task)
        specs = [
            _cell("ok-0"),
            _cell("ok-1", bench="cc"),
            _cell("kamikaze", bench="pr"),
        ]
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sweep"):
            with SweepExecutor(jobs=2, shard_plan=shard_plan) as ex:
                outs = ex.map(specs)
        # submission order and success are unaffected by the broken pool
        assert [o.key for o in outs] == ["ok-0", "ok-1", "kamikaze"]
        assert all(o.ok for o in outs)
        # completed cells were harvested, NOT re-executed: one invocation
        # each; only the kamikaze cell ran twice (dead worker + fallback)
        counts = Counter(run_log.read_text().splitlines())
        assert counts["ok-0"] == 1
        assert counts["ok-1"] == 1
        assert counts["kamikaze"] == 2
        # the fallback cell really ran in the parent this time
        assert outs[2].extra["worker_pid"] == os.getpid()
        warnings = [r for r in caplog.records if "process pool broke" in r.message]
        assert len(warnings) == 1
        assert "re-running 1 of 3" in warnings[0].getMessage()

    def test_simulated_crash_round_trips_through_pool(self):
        specs = [
            _cell("ok"),
            _cell(
                "boom",
                system=SystemSpec.dirgl(policy="iec", execution="sync"),
                fault_plan=((0, 0),),
            ),
        ]
        with SweepExecutor(jobs=2) as ex:
            ok, boom = ex.map(specs)
        assert ok.ok
        assert boom.failure_kind == "crash"
        assert boom.failure_label().startswith("crash: ")
        with pytest.raises(SimulatedCrashError) as exc:
            boom.raise_failure()
        # the crash site survived pickling through the CellOutcome
        assert exc.value.gpu_index == 0
        assert exc.value.round_index == 0

    def test_simulated_crash_serial_matches_pool(self):
        spec = _cell(
            "boom",
            system=SystemSpec.dirgl(policy="iec", execution="sync"),
            fault_plan=((1, 2),),
        )
        out = run_task(spec)
        assert out.failure_kind == "crash"
        with pytest.raises(SimulatedCrashError) as exc:
            out.raise_failure()
        assert exc.value.gpu_index == 1
        assert exc.value.round_index == 2

    @pytest.mark.parametrize("shard_plan", [False, True])
    def test_real_bug_shuts_the_pool_down(self, shard_plan):
        specs = [
            _cell("bad", system=SystemSpec("nonsense")),
            _cell("q-0"),
            _cell("q-1", bench="cc"),
            _cell("q-2", bench="pr"),
        ]
        ex = SweepExecutor(jobs=2, shard_plan=shard_plan)
        with pytest.raises(ValueError, match="unknown SystemSpec kind"):
            ex.map(specs)
        # no orphan workers grinding through the rest of the matrix
        assert ex._pool is None


class TestShardPlan:
    """Batch dispatch grouped by dataset: one graph open per worker batch,
    RSS telemetry on every outcome, results bit-identical to per-cell
    dispatch."""

    @staticmethod
    def _spec(key, bench="bfs", dataset="tiny-s"):
        return CellSpec(
            key=key,
            system=SystemSpec.dirgl(policy="iec", execution="sync"),
            benchmark=bench,
            dataset=dataset,
            num_gpus=2,
            check_memory=False,
        )

    def _store_cells(self, tmp_path):
        from repro.generators.chunked import build_store

        path = str(tmp_path / "g.csr")
        build_store("rmat", 8, path, seed=7)
        return [
            self._spec((b,), bench=b, dataset=f"store+mmap:{path}")
            for b in ("bfs", "pr-push")
        ]

    def test_shard_batches_split_to_fill_pool(self):
        ex = SweepExecutor(jobs=4, shard_plan=True)
        specs = [self._spec(i) for i in range(4)]  # one dataset, four cells
        batches = ex._shard_batches(specs)
        assert len(batches) == 4
        assert sorted(i for b in batches for i in b) == [0, 1, 2, 3]
        # many datasets: one batch each, no splitting
        mixed = [self._spec(0), self._spec(1, dataset="rmat24-s"), self._spec(2)]
        grouped = SweepExecutor(jobs=2, shard_plan=True)._shard_batches(mixed)
        assert grouped == [[0, 2], [1]]

    def test_shard_plan_matches_per_cell_dispatch(
        self, tmp_path, restore_global_cache
    ):
        cache_dir = str(tmp_path / "pcache")
        with SweepExecutor(jobs=1, cache_dir=cache_dir) as ex:
            base = ex.map(self._store_cells(tmp_path))
        with SweepExecutor(
            jobs=2, cache_dir=cache_dir, shard_plan=True,
            spill_shards=True, start_method="spawn",
        ) as ex:
            sharded = ex.map(self._store_cells(tmp_path))
        assert all(o.ok for o in base + sharded)
        for a, b in zip(base, sharded):
            assert a.key == b.key  # submission order preserved
            assert a.labels_crc == b.labels_crc
            assert a.stats.rounds == b.stats.rounds

    def test_map_after_close_rebuilds_shard_plan_and_rss_meter(
        self, tmp_path, restore_global_cache
    ):
        """Reopening a closed executor must rebuild the shard-planned
        dispatch on a fresh pool: batches still group by dataset and every
        outcome still carries the per-worker RSS meter."""
        ex = SweepExecutor(
            jobs=2, cache_dir=str(tmp_path / "pcache"), shard_plan=True,
            spill_shards=True,
        )
        first = ex.map(self._store_cells(tmp_path))
        ex.close()
        assert ex._pool is None
        second = ex.map(self._store_cells(tmp_path))  # lazily reopens
        ex.close()
        assert all(o.ok for o in first + second)
        for a, b in zip(first, second):
            assert a.key == b.key
            assert a.labels_crc == b.labels_crc
        for o in second:
            # extra["rss"] is attached only by shard-planned batch
            # dispatch, so its presence proves both the plan and the RSS
            # meter came back on the fresh pool
            rss = o.extra["rss"]
            assert rss["peak_bytes"] >= rss["baseline_bytes"] >= 0
            assert rss["source"] in ("RssAnon", "VmRSS", "ru_maxrss")

    def test_shard_plan_outcomes_carry_rss(self, tmp_path, restore_global_cache):
        with SweepExecutor(
            jobs=1, cache_dir=str(tmp_path / "pcache"), shard_plan=True,
            spill_shards=True,
        ) as ex:
            outs = ex.map(self._store_cells(tmp_path))
        assert all(o.ok for o in outs)
        for o in outs:
            rss = o.extra["rss"]
            assert rss["peak_bytes"] >= rss["baseline_bytes"] >= 0
            assert rss["peak_increment_bytes"] >= 0
            assert rss["source"] in ("RssAnon", "VmRSS", "ru_maxrss")

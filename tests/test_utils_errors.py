"""Tests for the shared utilities and the error hierarchy."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.utils import (
    balanced_prefix_split,
    blocked_ranges,
    grid_shape,
    rng_from_seed,
)
from tests.test_surface import entry_points


class TestBlockedRanges:
    def test_even_split(self):
        assert blocked_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_front_loaded(self):
        rs = blocked_ranges(10, 3)
        sizes = [b - a for a, b in rs]
        assert sizes == [4, 3, 3]

    def test_more_parts_than_items(self):
        rs = blocked_ranges(2, 4)
        sizes = [b - a for a, b in rs]
        assert sizes == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            blocked_ranges(4, 0)

    @given(n=st.integers(0, 300), p=st.integers(1, 17))
    @settings(max_examples=60, deadline=None)
    def test_covers_exactly(self, n, p):
        rs = blocked_ranges(n, p)
        assert len(rs) == p
        assert rs[0][0] == 0 and rs[-1][1] == n
        for (a0, b0), (a1, b1) in zip(rs, rs[1:]):
            assert b0 == a1
            assert b0 >= a0


class TestBalancedPrefixSplit:
    def test_uniform_weights(self):
        b = balanced_prefix_split(np.ones(12), 3)
        assert b.tolist() == [0, 4, 8, 12]

    def test_skewed_weights(self):
        w = np.array([100, 1, 1, 1, 1, 1])
        b = balanced_prefix_split(w, 2)
        # the heavy head forms its own chunk
        assert b[1] <= 1

    def test_zero_weights_fall_back_to_blocked(self):
        b = balanced_prefix_split(np.zeros(8), 2)
        assert b.tolist() == [0, 4, 8]

    def test_empty(self):
        assert balanced_prefix_split(np.empty(0), 3).tolist() == [0, 0, 0, 0]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            balanced_prefix_split(np.ones(3), 0)

    @given(
        w=st.lists(st.integers(0, 50), min_size=1, max_size=80),
        p=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundaries_monotone_and_complete(self, w, p):
        b = balanced_prefix_split(np.asarray(w, dtype=float), p)
        assert len(b) == p + 1
        assert b[0] == 0 and b[-1] == len(w)
        assert np.all(np.diff(b) >= 0)


class TestGridShape:
    def test_square(self):
        assert grid_shape(16) == (4, 4)

    def test_eight_is_4x2(self):
        assert grid_shape(8) == (4, 2)

    def test_prime_degenerates(self):
        assert grid_shape(7) == (7, 1)

    def test_rows_at_least_cols(self):
        for p in range(1, 40):
            r, c = grid_shape(p)
            assert r * c == p
            assert r >= c

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_shape(0)


class TestRng:
    def test_seed_reproducible(self):
        assert rng_from_seed(7).integers(100) == rng_from_seed(7).integers(100)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert rng_from_seed(g) is g


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "GraphFormatError", "PartitioningError", "CommunicationError",
            "ConvergenceError", "ConfigurationError",
            "UnsupportedFeatureError", "SimulatedOOMError",
            "SimulatedCrashError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_unsupported_is_configuration(self):
        assert issubclass(
            errors.UnsupportedFeatureError, errors.ConfigurationError
        )

    def test_oom_message_carries_sizes(self):
        e = errors.SimulatedOOMError(3, 20 * 2**30, 16 * 2**30)
        assert e.gpu_index == 3
        assert "20.00 GiB" in str(e)
        assert "16.00 GiB" in str(e)


class TestTypedErrorsAtTheCliBoundary:
    """Every ``[project.scripts]`` main ends a ``ReproError`` in one
    ``error: <Class>: <message>`` line and an exit code by class; anything
    else is a bug and keeps its traceback."""

    @pytest.mark.parametrize("module", entry_points())
    @pytest.mark.parametrize("err, code", [
        (errors.ConfigurationError("no such knob"), 2),
        (errors.UnknownDatasetError("unknown dataset 'nope'"), 2),
        (errors.GraphFormatError("bad header"), 1),
    ])
    def test_entry_point(self, monkeypatch, capsys, module, err, code):
        import argparse
        import importlib

        main = importlib.import_module(module).main

        def parse_args(self, argv=None):
            raise err

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        assert main([]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {type(err).__name__}: {err.args[0]}\n"
        assert "Traceback" not in captured.err + captured.out

        def bug(self, argv=None):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", bug)
        with pytest.raises(ZeroDivisionError):
            main([])

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"],
        ["--parts", "0"],
        ["--clients", "0"],
        ["--requests", "-1"],
        ["--mean-interarrival", "-1"],
        ["--hot-fraction", "2"],
        ["--hot-fraction", "-0.5"],
        ["--mutate-every", "-1"],
        ["--apps", ","],
        ["--apps", "zzz"],
        ["--policy", "zzz"],
        ["--max-queue-depth", "0"],
    ], ids="=".join)
    def test_a_serve_config_it_cannot_serve_is_a_usage_error(
        self, capsys, flags
    ):
        from repro.serve.cli import main as serve_main

        argv = ["--requests", "10", "--report", os.devnull]
        assert serve_main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigurationError: ")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err + captured.out

    def test_study_jobs_below_one_is_a_usage_error(self, capsys):
        from repro.study.cli import main as study_main

        assert study_main(["fig5", "--quick", "--jobs", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: ConfigurationError: jobs must be >= 1, got -3\n"
        assert "Traceback" not in captured.out

    def test_unknown_dataset_is_a_usage_error(self, capsys):
        from repro.study.cli import main as study_main
        from repro.tune.cli import main as tune_main

        assert tune_main(["--dataset", "nope", "--app", "bfs"]) == 2
        assert "error: UnknownDatasetError: unknown dataset 'nope'" in (
            capsys.readouterr().err
        )
        assert study_main(["gnn", "--gnn-shapes", "nosuch"]) == 2
        assert "error: UnknownDatasetError: unknown fuzz shape 'nosuch'" in (
            capsys.readouterr().err
        )

    def test_tune_gpus_must_be_integers(self, capsys):
        from repro.tune.cli import main as tune_main

        with pytest.raises(SystemExit) as exc:
            tune_main(["--dataset", "fuzz:rmat:7", "--app", "bfs", "--gpus", "2,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-tune")
        assert "argument --gpus: bad GPU count list '2,x'" in err

    @pytest.mark.parametrize("flags", [
        ["--gpus", "32,64"],
        ["--gpus", "0"],
        ["--policies", "zzz"],
        ["--policies", ","],
        ["--engines", "xyz"],
        ["--top-k", "-2"],
        ["--jobs", "0"],
    ], ids="=".join)
    def test_a_tune_axis_it_cannot_rank_is_a_usage_error(self, capsys, flags):
        from repro.tune.cli import main as tune_main

        argv = ["--dataset", "fuzz:rmat:7", "--app", "bfs"]
        assert tune_main([*argv, "--validate", "none", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigurationError: ")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err + captured.out

    def test_an_empty_ranking_names_each_prune_reason(self, capsys):
        from repro.tune.cli import main as tune_main

        # bfs-do is not async-capable: every BASP cell is unsound
        argv = ["--dataset", "fuzz:rmat:7", "--app", "bfs-do", "--gpus", "2,4"]
        assert tune_main([*argv, "--policies", "iec,zzz", "--engines", "basp"]) == 2
        assert capsys.readouterr().err == (
            "error: ConfigurationError: no configuration left to rank for "
            "bfs-do: pruned engine-unsound x2, policy-unsupported x2\n"
        )

    @pytest.mark.parametrize("flags", [
        ["--iterations", "0"],
        ["--iterations", "-1"],
        ["--max-failures", "0", "--iterations", "1"],
        ["--budget", "0"],
        ["--advisor-sanity", "--iterations", "0"],
    ], ids="=".join)
    def test_a_fuzz_run_that_tests_nothing_is_a_usage_error(
        self, capsys, flags
    ):
        from repro.fuzz.cli import main as fuzz_main

        assert fuzz_main([*flags, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ConfigurationError: ")
        assert captured.err.count("error:") == 1
        assert "clean" not in captured.out
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("name, text, error", [
        ("missing.json", None, "ConfigurationError: cannot load case"),
        ("garbled.json", "{not json", "ConfigurationError: cannot load case"),
        ("list.json", "[1, 2]", "ReproError: a case is a JSON object"),
    ])
    def test_an_unreadable_replay_file_is_a_typed_error(
        self, capsys, tmp_path, name, text, error
    ):
        from repro.fuzz.cli import main as fuzz_main

        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert fuzz_main(["--replay", str(path)]) == (
            2 if error.startswith("Configuration") else 1
        )
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err + captured.out

    def test_unknown_dataset_is_still_a_key_error(self):
        with pytest.raises(KeyError, match="unknown dataset 'nope'") as exc:
            raise errors.UnknownDatasetError("unknown dataset 'nope'")
        assert isinstance(exc.value, errors.ConfigurationError)
        assert str(exc.value) == "unknown dataset 'nope'"

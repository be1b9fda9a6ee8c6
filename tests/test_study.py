"""Tests for the study drivers: reports, scaling, tables, figures.

The full-fidelity drivers run for minutes; these tests exercise each driver
on reduced sweeps (small datasets / few GPU counts) and check structure,
missing-point semantics, and formatting.
"""

import pytest

from repro.generators import load_dataset
from repro.runtime.cells import SystemSpec
from repro.study import (
    figure3,
    figure5,
    figure8,
    format_series,
    format_table,
    strong_scaling,
    table1,
    table2,
    table3,
    table4,
)
from repro.study.cli import main as cli_main


class TestReport:
    def test_format_table_basic(self):
        out = format_table(["a", "b"], [[1, 2.5], [3, None]], title="T")
        assert "T" in out
        assert "—" in out  # missing point
        assert "2.500" in out

    def test_format_series(self):
        out = format_series("GPUs", [2, 4], {"x": [1.0, None]}, title="S")
        assert "S" in out and "GPUs" in out and "—" in out

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestStrongScaling:
    def test_sweep_structure(self):
        ds = load_dataset("tiny-s")
        res = strong_scaling(
            {"cvc": SystemSpec.dirgl(policy="cvc", execution="sync")},
            "bfs", ds, gpu_counts=(2, 4), check_memory=False,
        )
        assert res.gpu_counts == (2, 4)
        assert len(res.times("cvc")) == 2
        assert all(t is not None for t in res.times("cvc"))

    def test_unsupported_recorded_as_missing(self):
        ds = load_dataset("tiny-s")
        res = strong_scaling(
            {"lux": SystemSpec.framework("lux")}, "bfs", ds, gpu_counts=(2,),
        )
        assert res.times("lux") == [None]
        assert "unsupported" in res.points["lux"][0].failure

    def test_best_system_at(self):
        ds = load_dataset("tiny-s")
        res = strong_scaling(
            {
                "a": SystemSpec.dirgl(policy="cvc", execution="sync"),
                "b": SystemSpec.dirgl(policy="iec", execution="sync"),
            },
            "bfs", ds, gpu_counts=(4,), check_memory=False,
        )
        assert res.best_system_at(4) in ("a", "b")


class TestTables:
    def test_table1_structure(self):
        rows, text = table1(names=["rmat23-s"], diameter_sweeps=1)
        assert len(rows) == 1
        assert "Table I" in text
        assert rows[0][0] == "rmat23-s"

    def test_table2_reduced(self):
        cells, text = table2(
            benchmarks=("bfs",), datasets=("rmat23-s",), gpu_counts=(2,)
        )
        assert ("bfs", "d-irgl", "rmat23-s") in cells
        assert cells[("bfs", "d-irgl", "rmat23-s")].time is not None
        # Lux lacks bfs -> missing cell
        assert cells[("bfs", "lux", "rmat23-s")].time is None
        assert "Table II" in text

    def test_table3_shape_holds(self):
        cells, text = table3(datasets=("rmat23-s",))
        dirgl = cells[("d-irgl", "rmat23-s")]
        gunrock = cells[("gunrock", "rmat23-s")]
        lux = cells[("lux", "rmat23-s")]
        assert dirgl < gunrock
        assert lux == pytest.approx(5.85, abs=0.01)
        assert "Table III" in text

    def test_table4_reduced(self):
        cells, text = table4(
            configs=(("rmat23-s", 4),), benchmarks=("bfs",),
            policies=("cvc", "oec"),
        )
        static, dyn, mem = cells[("bfs", "cvc", "rmat23-s")]
        assert static >= 1.0 and dyn >= 1.0 and mem >= 1.0
        assert "Table IV" in text


class TestFigures:
    def test_figure3_reduced(self):
        results, text = figure3(
            benchmarks=("bfs",), datasets=("twitter50-s",),
            gpu_counts=(4, 8), systems=("var3", "var4"),
        )
        sweep = results[("twitter50-s", "bfs")]
        assert set(sweep.points) == {"var3", "var4"}
        assert "Figure 3" in text

    def test_figure5_reduced(self):
        bars, text = figure5(benchmarks=("cc",), datasets=("twitter50-s",))
        lux = bars[("twitter50-s", "cc", "lux")]
        dirgl = bars[("twitter50-s", "cc", "d-irgl(var1)")]
        assert dirgl is not None
        if lux is not None:  # Lux may OOM depending on calibration
            assert dirgl.total <= lux.total
        assert "Figure 5" in text

    def test_figure8_reduced(self):
        bars, text = figure8(
            benchmarks=("bfs",), datasets=("twitter50-s",), num_gpus=8,
            policies=("cvc", "iec"),
        )
        assert bars[("twitter50-s", "bfs", "CVC")] is not None
        assert "Figure 8" in text

    def test_breakdown_bar_fields(self):
        bars, _ = figure8(
            benchmarks=("bfs",), datasets=("twitter50-s",), num_gpus=8,
            policies=("cvc",),
        )
        bar = bars[("twitter50-s", "bfs", "CVC")]
        assert bar.total == pytest.approx(
            bar.max_compute + bar.min_wait + bar.device_comm
        )
        assert bar.comm_volume_gb > 0


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig9" in out

    def test_table1_quick(self, capsys):
        assert cli_main(["table1", "--quick"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["table17"])


class TestCLIExtras:
    def test_microbench_command(self, capsys):
        assert cli_main(["microbench", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "UO" in out and "AS" in out

    def test_analysis_command(self, capsys):
        assert cli_main(["analysis", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "avg message" in out
        assert "Partition structure" in out


class TestGatedStudyRows:
    """``ooc`` / ``advisor`` / ``gnn`` are rows of the one experiment
    table, run by the one loop under the one executor."""

    def test_gnn_row_runs_under_the_shared_executor(self, tmp_path, capsys):
        from repro.gnnflow import GnnReport

        out, traces = tmp_path / "r.json", tmp_path / "traces"
        rc = cli_main([
            "gnn", "--gnn-shapes", "powerlaw,star", "--jobs", "2",
            "--check", "cheap", "--trace", str(traces), "--out", str(out),
        ])
        assert rc == 0
        assert "VIOLATION" not in capsys.readouterr().out
        report = GnnReport.from_json(out.read_text())
        assert {r.shape for r in report.rows} == {"powerlaw", "star"}
        # --trace reached the workers: one Chrome trace per cell
        assert len(list(traces.glob("*.trace.json"))) == len(report.rows) == 24

    def test_check_level_reaches_the_gnn_workers(self, capsys):
        """A planted sync bug ends ``gnn --check full`` non-zero (the old
        ``--gnn`` mode returned before the checking executor was built)."""
        from repro.fuzz.mutations import sendtable_offset_skew

        with sendtable_offset_skew():
            rc = cli_main(
                ["gnn", "--gnn-shapes", "powerlaw", "--jobs", "2", "--check", "full"]
            )
        assert rc == 1
        assert "error: InvariantViolation: [send-table]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, culprit", [
        (["advisor", "--seed", "5"], "star/bfs: top-1 regret"),
        (["gnn", "--gnn-shapes", "powerlaw", "--seed", "11"],
         "powerlaw/oec: caching reduced H2D bytes only"),
    ])
    def test_a_violating_report_exits_1(self, capsys, argv, culprit):
        assert cli_main(argv) == 1
        assert f"VIOLATION: {culprit}" in capsys.readouterr().out

    def test_out_needs_a_row_that_writes_a_report(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "--out needs a study that writes a report" in capsys.readouterr().err

    def test_gated_rows_are_listed_and_left_out_of_all(self, capsys):
        from repro.study.cli import _EXPERIMENTS

        assert cli_main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert {"ooc", "advisor", "gnn"} <= set(listed) == set(_EXPERIMENTS)
        gated = {n for n, row in _EXPERIMENTS.items() if row.evaluate}
        assert gated == {"ooc", "advisor", "gnn"}

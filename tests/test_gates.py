"""The regression gates: deterministic results as the ``gates`` golden
table, and the clock-bound driver that is left.

Everything a gate computes in simulated time is a row of
``tests/cases/gates_golden.json``, one group per former gate (:data:`GROUPS`):
the sync matrix, a slice of the study through a two-worker pool, flat vs
two-level sync, a served trace, and the advisor and gnn suites.  Tier 1
recomputes every group and compares exactly; each gate's floor or ceiling
is a claim over the recorded rows, and each claim fails on a copy with
one row doctored.  What needs a clock — ``sweep-speedup``, the three
overhead gates and ``ooc`` — stays in ``benchmarks/bench_regression.py``,
whose loop is driven here through ``main(argv, gates=...)`` with fake
rows; of the real table only the names and the ``ooc`` check (against the
``ooc`` rows, on reports built from them) run here.
"""

import copy
import glob
import pathlib
import re

import pytest

from benchmarks import perfbaseline
from benchmarks.bench_regression import GATES, Gate, main
from benchmarks.perfbaseline import MATRIX_CELLS, cell_key, run_matrix, run_sweep
from repro import obs
from repro.check import current_check_level
from repro.gnnflow import H2D_REDUCTION_GATE, GnnReport, evaluate_gnn, gnn_study
from repro.gnnflow.study import GNN_SEED, GnnRow
from repro.partition.cache import get_cache
from repro.runtime.sweep import SweepExecutor
from repro.study.ooc import OocConfig, OocReport
from repro.tune import AdvisorReport, advisor_study, evaluate_advisor
from repro.tune.dse import REGRET_GATE, SUITE_SEED, AdvisorRow
from tests import golden
from tests.test_ooc import config_key

REPO = pathlib.Path(__file__).resolve().parent.parent

#: worker count of the pooled groups — 2 processes is enough to prove
#: pool fan-out changes nothing
JOBS = 2


# --------------------------------------------------------------------- #
# the rows
# --------------------------------------------------------------------- #
def sync_matrix_rows() -> dict:
    """bfs/cc/pr x IEC/CVC x BSP/BASP x AS/UO on a seeded RMAT graph."""
    return {
        f"sync-matrix/{key}": cell.deterministic_fields()
        for key, cell in run_matrix().items()
    }


def sweep_rows() -> dict:
    """A fixed 13-cell slice of the study through a two-worker executor."""
    records, _, _ = run_sweep(jobs=JOBS)
    return {f"sweep/{key}": record for key, record in records.items()}


#: the cell and scale of two-level sync: bridges-32 is 16 hosts, so
#: cross-host traffic dominates
HIER_CELL = ("pr", "cvc", "bsp", "uo")
HIER_PARTS = 32
#: two-level sync must cut cross-host wire messages at least this much
HIER_AGG_MIN = 1.5


def hier_rows() -> dict:
    """The hier cell with flat per-pair sync and with two-level sync."""
    workload = perfbaseline._Workload(perfbaseline.MATRIX_GRAPH, parts=HIER_PARTS)
    rows = {}
    for mode, hierarchical in (("flat", False), ("hierarchical", True)):
        cell = perfbaseline.run_cell(workload, *HIER_CELL, hierarchical=hierarchical)
        rows[f"hier-aggregation/{mode}"] = {
            "cell": cell.key,
            **cell.deterministic_fields(),
            "inter_host_messages": cell.inter_host_messages,
        }
    return rows


#: the naive baseline's median latency must be at least this many times
#: the serve policy's — coalescing + caching must earn their keep
SERVE_MIN_SPEEDUP = 2.0


def serve_rows() -> dict:
    """One seeded trace (hot keys, mutations, tight arrivals) served twice
    under the full policy and once under naive run-every-request."""
    from repro.serve.cli import run_trace
    from repro.serve.service import ServeConfig
    from repro.serve.traffic import TrafficConfig, generate_trace

    trace = generate_trace(TrafficConfig(
        seed=5, num_clients=4, num_requests=80, mean_interarrival=0.002,
        apps=("bfs", "cc", "pr"), graphs=((6, 4.0), (7, 4.0)), mutate_every=10,
    ))
    first = run_trace(trace, ServeConfig(workers=2))
    second = run_trace(trace, ServeConfig(workers=2))
    naive = run_trace(trace, ServeConfig(workers=2, naive=True))
    s, n = first.latency, naive.latency
    return {"serve/trace": {
        "requests": first.counters["requests"],
        "serve_median": s["median"],
        "serve_mean": s["mean"],
        "serve_p90": s["p90"],
        "serve_makespan": s["makespan"],
        "naive_median": n["median"],
        "naive_mean": n["mean"],
        "naive_makespan": n["makespan"],
        "median_speedup": round(n["median"] / s["median"], 6),
        "coalesced": first.counters["coalesced"],
        "cache_hits": first.counters["cache_hits"],
        "delta_runs": first.counters["delta_runs"],
        "serve_executions": first.counters["executions"],
        "naive_executions": naive.counters["executions"],
        "mutations": first.counters["mutations"],
        "serve_failed": first.counters["failed"],
        "naive_failed": naive.counters["failed"],
        "deterministic": first.to_json() == second.to_json(),
    }}


def advisor_rows() -> dict:
    """Full-validation DSE over the seeded fuzz-shape suite."""
    return {
        f"advisor/{r.shape}/{r.app}": r.to_dict() for r in advisor_study().rows
    }


def gnn_rows() -> dict:
    """The feature-gather placement study, serially and with ``--jobs 2``:
    the rows of the serial run, and whether the two reports are
    byte-identical."""
    serial = gnn_study()
    with SweepExecutor(jobs=JOBS) as ex:
        pooled = gnn_study(executor=ex)
    return {
        **{
            f"gnn/{r.shape}/{r.policy}/{r.placement}": r.to_dict()
            for r in serial.rows
        },
        "gnn/serial-vs-jobs-2": {"identical": serial.to_json() == pooled.to_json()},
    }


GROUPS = {
    "sync-matrix": sync_matrix_rows,
    "sweep": sweep_rows,
    "hier-aggregation": hier_rows,
    "serve": serve_rows,
    "advisor": advisor_rows,
    "gnn": gnn_rows,
}


def _process_state() -> tuple:
    return get_cache(), obs.active_trace_dir(), current_check_level()


@pytest.mark.parametrize("group", GROUPS)
def test_gates_match_golden(group):
    """The group reproduces its rows, and leaves the process-wide
    partition cache, trace directory and check level as it found them
    (serve once left the cache pointing into its deleted spool)."""
    before = _process_state()
    golden.check("gates", group)
    after = _process_state()
    assert all(a is b for a, b in zip(after, before)), (before, after)


# --------------------------------------------------------------------- #
# the gates' floors and ceilings, as claims over the recorded rows
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rows():
    return golden.recorded("gates")


def _group(rows, group) -> dict:
    return {k: r for k, r in rows.items() if k.startswith(group + "/")}


def two_level_sync_folds_cross_host_messages(rows):
    flat = rows["hier-aggregation/flat"]
    hier = rows["hier-aggregation/hierarchical"]
    for field in ("labels_crc", "rounds", "work_items"):
        assert flat[field] == hier[field], field
    ratio = flat["inter_host_messages"] / max(hier["inter_host_messages"], 1)
    assert ratio >= HIER_AGG_MIN, ratio


def serving_beats_naive_without_failures(rows):
    sp = rows["serve/trace"]
    assert sp["deterministic"], "two runs of the seeded trace differ"
    assert sp["serve_failed"] == sp["naive_failed"] == 0, sp
    assert sp["median_speedup"] >= SERVE_MIN_SPEEDUP, sp["median_speedup"]


def advisor_regret_within_gate(rows):
    report = AdvisorReport(
        seed=SUITE_SEED,
        rows=[AdvisorRow(**r) for r in _group(rows, "advisor").values()],
    )
    assert evaluate_advisor(report, REGRET_GATE) == []


def caching_cuts_h2d_traffic(rows):
    assert rows["gnn/serial-vs-jobs-2"]["identical"]
    report = GnnReport(
        seed=GNN_SEED, num_gpus=4, platform="bridges:contended",
        rows=[
            GnnRow.from_dict(r) for k, r in _group(rows, "gnn").items()
            if k != "gnn/serial-vs-jobs-2"
        ],
    )
    assert evaluate_gnn(report, H2D_REDUCTION_GATE) == []


CLAIMS = {
    "hier-aggregation": two_level_sync_folds_cross_host_messages,
    "serve": serving_beats_naive_without_failures,
    "advisor": advisor_regret_within_gate,
    "gnn": caching_cuts_h2d_traffic,
}


@pytest.mark.parametrize("group", CLAIMS)
def test_gate_holds_on_the_recorded_rows(rows, group):
    CLAIMS[group](rows)


def _worst_advisor_row(r):
    row = max(_group(r, "advisor").values(), key=lambda x: x["regret1"])
    row["regret1"] = REGRET_GATE * (1 + 1e-9)


#: case -> (edit to a copy of the rows, the claim it must break)
DOCTORED = {
    "hier-rounds-differ": (
        lambda r: r["hier-aggregation/hierarchical"].update(rounds=0),
        "hier-aggregation"),
    "hier-no-fold": (
        lambda r: r["hier-aggregation/hierarchical"].update(
            inter_host_messages=r["hier-aggregation/flat"]["inter_host_messages"]),
        "hier-aggregation"),
    "serve-slow": (lambda r: r["serve/trace"].update(median_speedup=1.99), "serve"),
    "serve-failed": (lambda r: r["serve/trace"].update(naive_failed=1), "serve"),
    "serve-nondeterministic": (
        lambda r: r["serve/trace"].update(deterministic=False), "serve"),
    "advisor-regret": (_worst_advisor_row, "advisor"),
    "gnn-no-reduction": (
        lambda r: r["gnn/powerlaw/iec/cache"].update(
            h2d_bytes=r["gnn/powerlaw/iec/plain"]["h2d_bytes"]),
        "gnn"),
    "gnn-added-traffic": (
        lambda r: r["gnn/star/cvc/cache+local"].update(
            h2d_bytes=r["gnn/star/cvc/plain"]["h2d_bytes"] + 1),
        "gnn"),
    "gnn-jobs-differ": (
        lambda r: r["gnn/serial-vs-jobs-2"].update(identical=False), "gnn"),
}


@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_gates_fail_on_doctored_rows(rows, case):
    doctor, group = DOCTORED[case]
    doctored = copy.deepcopy(rows)
    doctor(doctored)
    with pytest.raises(AssertionError):
        CLAIMS[group](doctored)


def test_matrix_cells_cover_full_grid():
    keys = [cell_key(*c) for c in MATRIX_CELLS]
    assert len(keys) == len(set(keys)) == 3 * 2 * 2 * 2
    assert "pr/cvc/bsp/uo" in keys


# --------------------------------------------------------------------- #
# the one loop, on fake rows
# --------------------------------------------------------------------- #
def _fake(name, x=1.0, violations=(), **kw):
    """A table row measuring ``{"x": x}``; ``row.calls`` counts its
    measurements."""
    calls = []

    def measure():
        calls.append(name)
        return {"x": x}

    row = Gate(
        name, measure, lambda r: f"{name}: x={r['x']} (gate: <= 2)",
        lambda r: list(violations), **kw,
    )
    object.__setattr__(row, "calls", calls)
    return row


def _run(argv, gates, capsys):
    try:
        code = main(argv, gates=gates)
    except SystemExit as e:  # argparse usage error
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exit_1_on_a_violation(capsys):
    code, out, _ = _run([], (_fake("a"), _fake("b")), capsys)
    assert code == 0 and "a: x=1.0 (gate: <= 2)" in out
    assert "all gates within tolerance" in out
    gates = (_fake("a", violations=["a gate: 3.0x > 2.0x"]), _fake("b"))
    code, out, _ = _run([], gates, capsys)
    assert code == 1 and "REGRESSION: a gate: 3.0x > 2.0x" in out
    assert "1 violation(s)" in out
    assert gates[1].calls == ["b"]  # a violation does not stop the loop


def test_only_selects_in_the_order_given(capsys):
    gates = tuple(_fake(n, default=(n != "slow")) for n in ("a", "slow", "c"))
    _run([], gates, capsys)
    assert [g.calls for g in gates] == [["a"], [], ["c"]]
    code, out, _ = _run(
        ["--only", "c", "--only", "slow", "--only", "c"], gates, capsys
    )
    assert code == 0
    assert [ln.split(":")[0] for ln in out.splitlines()[:2]] == ["c", "slow"]
    assert gates[0].calls == ["a"] and gates[2].calls == ["c", "c"]


def test_unknown_only_name_lists_the_valid_names(capsys):
    code, _, err = _run(["--only", "nope"], (_fake("a"), _fake("b")), capsys)
    assert code == 2
    assert "unknown gate(s) nope" in err and "valid names: a, b" in err


# --------------------------------------------------------------------- #
# ooc: the one gate that also reads golden rows
# --------------------------------------------------------------------- #
def _recorded_report(cfg: OocConfig) -> OocReport:
    """A report whose deterministic part is the recorded ``ooc`` rows of
    ``cfg``, and whose host numbers pass the study's own gates."""
    key = config_key(cfg)
    recorded = golden.recorded("ooc")
    store = recorded[f"{key}/store"]
    return OocReport(
        config=cfg,
        **store,
        cells={
            k.rpartition("/")[2]: dict(row) for k, row in recorded.items()
            if k.startswith(key + "/") and k != f"{key}/store"
        },
        peak_rss_bytes=1,
        small_wall={"ram": 1.0, "mmap": 1.0},
    )


def test_ooc_report_is_held_to_the_rows_of_its_config(capsys):
    ooc = {g.name: g for g in GATES}["ooc"]
    report = _recorded_report(OocConfig())
    assert ooc.check(report) == []
    report.cells["pr-push"]["labels_crc"] += 1
    found = ooc.check(report)
    assert len(found) == 1 and "pr-push" in found[0] and "labels_crc" in found[0]
    # a config with no recorded rows (CI's smoke cap): a note, no violation
    small = copy.deepcopy(report)
    small.config = OocConfig(ram_cap_mb=8.0)
    assert config_key(small.config) != config_key(report.config)
    capsys.readouterr()
    assert ooc.check(small) == []
    assert f"no ooc rows for {config_key(small.config)}" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# the real table
# --------------------------------------------------------------------- #
#: the selectors this table replaced — the one place they are still spelled
OLD_FLAGS = re.compile(r"--(trace-overhead|check-overhead|contention-overhead|hier-aggregation|serve|advisor|gnn|ooc)-only|--wall-tol")
_OLD_FLAG_LIST = [
    f"--{stem}-only"
    for stem in OLD_FLAGS.pattern.partition("(")[2].partition(")")[0].split("|")
] + [OLD_FLAGS.pattern.rpartition("|")[2]]

NAMES = [g.name for g in GATES]


def test_table_shape():
    assert NAMES == [
        "sweep-speedup", "trace-overhead", "check-overhead",
        "contention-overhead", "ooc",
    ]
    assert [g.name for g in GATES if not g.default] == ["ooc"]


@pytest.mark.parametrize("flag", _OLD_FLAG_LIST + ["--update", "--check-only"])
def test_deleted_flags_are_usage_errors(flag, capsys):
    assert len(_OLD_FLAG_LIST) == 9
    argv = [flag, "4"] if flag.endswith("tol") else [flag]
    code, _, err = _run(argv, GATES, capsys)
    assert code == 2 and "unrecognized arguments" in err


def test_cli_has_exactly_one_option(capsys):
    code, out, _ = _run(["--help"], GATES, capsys)
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {"--help", "--only"}


def _doc_files():
    return [
        REPO / ".github" / "workflows" / "ci.yml",
        REPO / "README.md",
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
        *map(pathlib.Path, sorted(glob.glob(str(REPO / "docs" / "*.md")))),
    ]


def test_documented_gate_names_cannot_rot():
    """Every ``bench_regression.py … --only NAME`` in CI and the docs
    names a table row, and no deleted selector survives anywhere."""
    named = 0
    for path in _doc_files():
        text = path.read_text()
        stale = [m.group(0) for m in OLD_FLAGS.finditer(text)]
        assert not stale, f"{path}: deleted flag(s) {sorted(set(stale))}"
        for m in re.finditer(r"--only[ \n]+([a-z][a-z0-9-]*)", text):
            named += 1
            assert m.group(1) in NAMES, (
                f"{path}: --only {m.group(1)} is not a gate "
                f"(valid: {', '.join(NAMES)})"
            )
    assert named >= 3  # the CI steps alone


def test_docs_gate_table_matches_the_registry():
    """docs/performance.md tabulates the rows: same names, same order,
    the same default membership, and every environment override it
    names is read somewhere."""
    text = (REPO / "docs" / "performance.md").read_text()
    text = text.partition("## Running and updating")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", text, flags=re.M)
    assert [name for name, _ in rows] == NAMES
    for (name, rest), gate in zip(rows, GATES):
        cols = [c.strip() for c in rest.split("|")]
        assert len(cols) == 4, name
        env, default = cols[2], cols[3]
        assert default == ("yes" if gate.default else "no"), name
        for var in re.findall(r"REPRO_[A-Z_]+", env):
            assert any(
                var in p.read_text()
                for p in (REPO / "src" / "repro").rglob("*.py")
            ) or var in (REPO / "benchmarks" / "perfbaseline.py").read_text(), var

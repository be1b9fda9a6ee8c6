"""The regression harness's own verdicts must be trustworthy.

One comparer (``perfbaseline.diff_baseline``), one write/load pair and
one loop (``bench_regression.main``) serve every gate, so one suite
holds them: exact fields flag any change, simulated floats get the
row's relative tolerance (0 = exact), wall numbers get a one-sided slack
factor (or are skipped), a config mismatch replaces the cell diff, and a
baseline that is missing or not the gate's is exit 2 — never a silent
pass.  The loop is driven through ``main(argv, gates=...)`` with fake
rows; the real table is only asked for its names.
"""

import copy
import glob
import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.bench_regression import GATES, Gate, main
from benchmarks.perfbaseline import (
    MATRIX_CELLS,
    CellResult,
    cell_key,
    diff_baseline,
    load_baseline,
    write_baseline,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# the one comparer
# --------------------------------------------------------------------- #
def _cell(key="pr/cvc/bsp/uo", **over):
    base = dict(
        key=key, wall_seconds=0.05, sim_seconds=0.014, rounds=54,
        messages=429, comm_bytes=3.4e5, work_items=1.2e6, labels_crc=12345,
    )
    base.update(over)
    return CellResult(**base)


def _sync(cells, config=None):
    """A sync-shaped envelope, built the way the table's row builds it."""
    return {
        "gate": "sync",
        "config": config or {"num_partitions": 4},
        "deterministic": {k: c.deterministic_fields() for k, c in cells.items()},
        "wall": {"sync": {k: c.wall_seconds for k, c in cells.items()}},
    }


def _tree(deterministic, config=None):
    return {
        "gate": "t", "config": config or {}, "deterministic": deterministic,
        "wall": {},
    }


_GNN_ROW = {
    "cache_hits": 0, "cache_misses": 46, "comm_bytes": 5741.0,
    "execution_time": 0.002553963236542632, "h2d_bytes": 5888.0,
    "hit_rate": 0.0, "labels_crc": 477184117, "placement": "plain",
    "policy": "iec", "rounds": 6, "shape": "powerlaw",
}
_OOC = {
    "num_edges": 4096,
    "cells": {
        "bfs": {"ok": True, "failure": "", "rounds": 4, "labels_crc": 111},
        "pr-push": {"ok": True, "failure": "", "rounds": 9, "labels_crc": 222},
    },
}
_SERVE = {"requests": 80, "serve_median": 0.0001, "median_speedup": 8.2273}


def _edit(tree, path, value):
    """A deep copy of ``tree`` with ``path`` set to ``value`` (or, for
    ``value is KeyError``, removed)."""
    out = copy.deepcopy(tree)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


#: (id, baseline tree, path edited in the current run, new value, rtol,
#:  substrings the single violation must carry — () means "passes")
DIFF_CASES = [
    ("identical", _OOC, ("num_edges",), 4096, 1e-6, ()),
    # sync: exact metrics flag any change
    *[
        (f"sync-exact-{f}", _sync({"a": _cell("a")})["deterministic"],
         ("a", f), v, 1e-6, ("a", f, "changed"))
        for f, v in (("rounds", 55), ("messages", 430), ("labels_crc", 99999))
    ],
    # sync: simulated floats get a tight relative tolerance
    *[
        case
        for f in ("sim_seconds", "comm_bytes", "work_items")
        for base in [getattr(_cell(), f)]
        for case in (
            (f"sync-float-within-{f}",
             _sync({"a": _cell("a")})["deterministic"],
             ("a", f), base * (1 + 1e-9), 1e-6, ()),
            (f"sync-float-drift-{f}",
             _sync({"a": _cell("a")})["deterministic"],
             ("a", f), base * 1.01, 1e-6, ("a", f, "drifted")),
        )
    ],
    # a float the parent's gnn/advisor comparers let through on their
    # absolute floor (1e-6 * max(.., 1.0)): there is no floor any more
    ("gnn-no-absolute-floor", {"powerlaw/iec/plain": _GNN_ROW},
     ("powerlaw/iec/plain", "execution_time"),
     0.002553963236542632 * (1 + 1e-4), 1e-6, ("execution_time", "drifted")),
    ("gnn-drifted-row", {"powerlaw/iec/plain": _GNN_ROW},
     ("powerlaw/iec/plain", "labels_crc"), 1, 1e-6,
     ("powerlaw/iec/plain", "labels_crc", "changed")),
    ("ooc-rounds", _OOC, ("cells", "pr-push", "rounds"), 10, 0.0,
     ("pr-push", "rounds", "changed 9 -> 10")),
    ("ooc-labels-crc", _OOC, ("cells", "pr-push", "labels_crc"), 999, 0.0,
     ("pr-push", "labels_crc", "changed 222 -> 999")),
    # the baseline has no entry for an app the run produced
    ("ooc-no-entry-for-bfs", _edit(_OOC, ("cells", "bfs"), KeyError),
     ("cells", "bfs"), _OOC["cells"]["bfs"], 0.0,
     ("cells", "bfs", "not in baseline")),
    ("missing-from-run", _OOC, ("cells", "bfs"), KeyError, 0.0,
     ("cells", "bfs", "missing from current run")),
    # serve pins its simulated floats exactly
    ("serve-exact-float", _SERVE, ("serve_median",), 0.0001 * (1 + 1e-9),
     0.0, ("serve_median", "drifted")),
    ("serve-same-float", _SERVE, ("serve_median",), 0.0001, 0.0, ()),
    ("string-leaf", {"r": {"predicted_best": "hvc/bsp/uo/alb/p2"}},
     ("r", "predicted_best"), "cvc/bsp/uo/alb/p2", 1e-6,
     ("predicted_best", "changed")),
]


@pytest.mark.parametrize(
    "baseline,path,value,rtol,expect",
    [c[1:] for c in DIFF_CASES], ids=[c[0] for c in DIFF_CASES],
)
def test_diff_baseline(baseline, path, value, rtol, expect):
    current = _edit(baseline, path, value)
    config_keys, violations = diff_baseline(
        _tree(current), _tree(baseline), rtol=rtol
    )
    assert config_keys == []
    if not expect:
        assert violations == []
    else:
        assert len(violations) == 1, violations
        for part in expect:
            assert part in violations[0]


def test_missing_and_extra_cells_flagged():
    _, violations = diff_baseline(
        _sync({"a": _cell("a")}), _sync({"b": _cell("b")})
    )
    assert any("b" in v and "missing" in v for v in violations)
    assert any("a" in v and "not in baseline" in v for v in violations)


def test_wall_clock_slack_and_skip():
    base = _sync({"a": _cell("a", wall_seconds=0.1)})
    slow = _sync({"a": _cell("a", wall_seconds=0.9)})
    _, violations = diff_baseline(slow, base, wall_tolerance=4.0)
    assert len(violations) == 1 and "wall" in violations[0]
    assert "0.9" in violations[0] and "4.0x" in violations[0]
    # within slack, and skipped entirely with None
    assert diff_baseline(slow, base, wall_tolerance=10.0) == ([], [])
    assert diff_baseline(slow, base, wall_tolerance=None) == ([], [])
    # wall-clock *improvement* never flags
    fast = _sync({"a": _cell("a", wall_seconds=0.001)})
    assert diff_baseline(fast, base, wall_tolerance=4.0) == ([], [])
    # numbers another gate recorded in this file are not this gate's
    base["wall"]["sweep-speedup"] = {"speedup": 4.2}
    assert diff_baseline(fast, base, wall_tolerance=4.0) == ([], [])
    # a recorded zero bounds nothing
    zero = _sync({"a": _cell("a", wall_seconds=0.0)})
    assert diff_baseline(slow, zero, wall_tolerance=4.0) == ([], [])


def test_config_mismatch_replaces_the_cell_diff():
    base = _sync({"a": _cell("a")}, config={"scale": 15, "seed": 23})
    cur = _sync({"a": _cell("a", rounds=1)}, config={"scale": 13, "seed": 23})
    assert diff_baseline(cur, base) == (["scale"], [])


def test_write_load_round_trip(tmp_path):
    path = tmp_path / "BENCH_sync.json"
    env = _sync({"a": _cell("a"), "b": _cell("b", rounds=7)})
    env["wall"]["sweep-speedup"] = {"speedup": 3.5}
    write_baseline(path, **env)
    back = load_baseline(path, "sync")
    assert back == {"schema": 2, **env}
    assert diff_baseline(env, back, wall_tolerance=1.0) == ([], [])


def test_unusable_baseline_files_do_not_load(tmp_path):
    path = tmp_path / "BENCH_sync.json"
    assert load_baseline(path, "sync") is None  # no file
    write_baseline(path, **_sync({"a": _cell("a")}))
    assert load_baseline(path, "sweep") is None  # another gate's file
    path.write_text(path.read_text().replace('"schema": 2', '"schema": 1'))
    assert load_baseline(path, "sync") is None  # schema drift
    path.write_text("{")
    assert load_baseline(path, "sync") is None  # torn
    path.write_text("[]")
    assert load_baseline(path, "sync") is None


def test_matrix_cells_cover_full_grid():
    keys = [cell_key(*c) for c in MATRIX_CELLS]
    assert len(keys) == len(set(keys)) == 3 * 2 * 2 * 2
    assert "pr/cvc/bsp/uo" in keys


# --------------------------------------------------------------------- #
# the one loop, on fake rows
# --------------------------------------------------------------------- #
def _fake(name, x=1.0, violations=(), baseline=True, **kw):
    """A table row measuring ``{"x": x, "n": 3}``; ``row.calls`` counts
    its measurements."""
    calls = []

    def measure():
        calls.append(name)
        return {"x": x, "n": 3}

    if baseline:
        kw.setdefault("config", lambda r: {"seed": 1})
        kw.setdefault("deterministic", lambda r: dict(r))
    row = Gate(
        name, measure, lambda r: f"{name}: x={r['x']} (gate: <= 2)",
        lambda r: list(violations), **kw,
    )
    object.__setattr__(row, "calls", calls)
    return row


def _run(argv, gates, tmp_path, capsys):
    try:
        code = main(argv, gates=gates, baseline_dir=tmp_path)
    except SystemExit as e:  # argparse usage error
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_update_then_check_round_trips(tmp_path, capsys):
    gates = (_fake("a"), _fake("b", baseline=False))
    code, out, _ = _run(["--update"], gates, tmp_path, capsys)
    assert code == 0 and "a baseline written" in out
    assert gates[1].calls == []  # nothing to record: not measured
    doc = json.loads((tmp_path / "BENCH_a.json").read_text())
    assert doc == {
        "schema": 2, "gate": "a", "config": {"seed": 1},
        "deterministic": {"x": 1.0, "n": 3}, "wall": {},
    }
    code, out, _ = _run([], gates, tmp_path, capsys)
    assert code == 0, out
    assert "a: x=1.0 (gate: <= 2)" in out and "b: x=1.0" in out
    assert "all gates within tolerance" in out


def test_exit_1_on_structural_violation_and_on_drift(tmp_path, capsys):
    _run(["--update"], (_fake("a"),), tmp_path, capsys)
    code, out, _ = _run(
        [], (_fake("a", violations=["a gate: 3.0x > 2.0x"]),), tmp_path, capsys
    )
    assert code == 1 and "REGRESSION: a gate: 3.0x > 2.0x" in out
    code, out, _ = _run([], (_fake("a", x=1.5),), tmp_path, capsys)
    assert code == 1
    assert "REGRESSION: a baseline: x: drifted 1.0 -> 1.5" in out
    assert "1 violation(s)" in out


@pytest.mark.parametrize("damage", ["absent", "schema", "gate"])
def test_exit_2_without_a_usable_baseline(damage, tmp_path, capsys):
    gate = _fake("a")
    if damage != "absent":
        _run(["--update"], (gate,), tmp_path, capsys)
        path = tmp_path / "BENCH_a.json"
        old, new = {
            "schema": ('"schema": 2', '"schema": 1'),
            "gate": ('"gate": "a"', '"gate": "b"'),
        }[damage]
        path.write_text(path.read_text().replace(old, new))
        gate.calls.clear()
    code, out, _ = _run([], (gate, _fake("b", baseline=False)), tmp_path, capsys)
    assert code == 2
    assert "no baseline for a; run --update --only a" in out
    assert gate.calls == []  # decided before anything is measured


def test_config_mismatch_is_a_violation_or_a_note(tmp_path, capsys):
    _run(["--update"], (_fake("a"),), tmp_path, capsys)
    other = dict(config=lambda r: {"seed": 2}, x=9.0)
    code, out, _ = _run([], (_fake("a", **other),), tmp_path, capsys)
    assert code == 1
    assert "REGRESSION: a baseline built with different seed" in out
    assert "drifted" not in out  # one line replaces the cell diff
    # an env-derived config (the ooc smoke cap): note and skip instead
    code, out, _ = _run(
        [], (_fake("a", env_config=True, **other),), tmp_path, capsys
    )
    assert code == 0 and "REGRESSION" not in out
    assert "a baseline built with different seed; deterministic " \
           "comparison skipped" in out


def test_check_only_skips_wall_rows(tmp_path, capsys):
    gates = (_fake("det", baseline=False), _fake("timed", baseline=False, wall=True))
    code, out, _ = _run(["--check-only"], gates, tmp_path, capsys)
    assert code == 0 and gates[0].calls == ["det"] and gates[1].calls == []
    assert "timed" not in out
    code, _, err = _run(["--check-only", "--only", "timed"], gates, tmp_path, capsys)
    assert code == 2 and "skips every selected gate" in err


def test_only_selects_in_the_order_given(tmp_path, capsys):
    gates = tuple(
        _fake(n, baseline=False, default=(n != "slow")) for n in ("a", "slow", "c")
    )
    _run([], gates, tmp_path, capsys)
    assert [g.calls for g in gates] == [["a"], [], ["c"]]
    code, out, _ = _run(
        ["--only", "c", "--only", "slow", "--only", "c"], gates, tmp_path, capsys
    )
    assert code == 0
    assert [ln.split(":")[0] for ln in out.splitlines()[:2]] == ["c", "slow"]
    assert gates[0].calls == ["a"] and gates[2].calls == ["c", "c"]


def test_unknown_only_name_lists_the_valid_names(tmp_path, capsys):
    gates = (_fake("a"), _fake("b"))
    code, _, err = _run(["--only", "nope"], gates, tmp_path, capsys)
    assert code == 2
    assert "unknown gate(s) nope" in err and "valid names: a, b" in err


def test_update_does_not_commit_a_failing_measurement(tmp_path, capsys):
    _run(["--update"], (_fake("a"),), tmp_path, capsys)
    before = (tmp_path / "BENCH_a.json").read_text()
    bad = _fake("a", x=7.0, violations=["a gate: 1.4x < 2.0x"])
    for argv in (["--update"], ["--update", "--only", "a"]):
        code, out, _ = _run(argv, (bad, _fake("b")), tmp_path, capsys)
        assert code == 1 and "REGRESSION: a gate: 1.4x < 2.0x" in out
        assert "a baseline written" not in out
        assert (tmp_path / "BENCH_a.json").read_text() == before
    # the gates that passed in the same run are still written
    assert (tmp_path / "BENCH_b.json").exists()


def test_update_of_a_gate_without_a_baseline_is_a_usage_error(tmp_path, capsys):
    gates = (
        _fake("a"),
        _fake("guest", baseline=False, recorded_in="a"),
        _fake("bare", baseline=False),
    )
    for name in ("guest", "bare"):
        code, _, err = _run(["--update", "--only", name], gates, tmp_path, capsys)
        assert code == 2 and f"gate {name} has no baseline to update" in err
    assert [g.calls for g in gates] == [[], [], []]
    assert list(tmp_path.iterdir()) == []
    code, _, err = _run(["--update", "--check-only"], gates, tmp_path, capsys)
    assert code == 2


def test_update_records_a_guest_gate_with_its_host(tmp_path, capsys):
    """The ``sweep-speedup`` row: no baseline of its own, but ``--update`` of
    the host re-measures it and keeps the numbers in the host's file."""
    host = _fake("a", record=lambda r: {"cell": 0.05})
    guest = _fake("guest", x=4.2, baseline=False, wall=True,
                  recorded_in="a", record=lambda r: r)
    code, _, _ = _run(["--update", "--only", "a"], (host, guest), tmp_path, capsys)
    assert code == 0 and guest.calls == ["guest"]
    doc = json.loads((tmp_path / "BENCH_a.json").read_text())
    assert doc["wall"] == {"a": {"cell": 0.05}, "guest": {"x": 4.2, "n": 3}}
    # a guest that fails its gate keeps the host's file from being written
    before = (tmp_path / "BENCH_a.json").read_text()
    weak = _fake("guest", x=1.4, baseline=False, wall=True, recorded_in="a",
                 record=lambda r: r, violations=["guest gate: 1.4x < 3.0x"])
    code, out, _ = _run(["--update"], (host, weak), tmp_path, capsys)
    assert code == 1 and "a baseline written" not in out
    assert (tmp_path / "BENCH_a.json").read_text() == before


def test_wall_slack_comes_from_the_environment(tmp_path, capsys, monkeypatch):
    seconds = iter([0.1, 0.9, 0.9, 0.9])
    gate = _fake("a", record=lambda r: {"cell": next(seconds)})
    _run(["--update"], (gate,), tmp_path, capsys)
    code, out, _ = _run([], (gate,), tmp_path, capsys)
    assert code == 1 and "wall 0.9 exceeds 4.0x baseline 0.1" in out
    monkeypatch.setenv("REPRO_BENCH_WALL_TOL", "10")
    assert _run([], (gate,), tmp_path, capsys)[0] == 0
    monkeypatch.setenv("REPRO_BENCH_WALL_TOL", "0")  # disables wall checks
    assert _run([], (gate,), tmp_path, capsys)[0] == 0


def test_structural_and_baseline_violations_are_both_reported(tmp_path, capsys):
    _run(["--update"], (_fake("a"),), tmp_path, capsys)
    gate = _fake("a", x=2.0, violations=["a gate: low"])
    code, out, _ = _run([], (gate,), tmp_path, capsys)
    assert code == 1 and "2 violation(s)" in out
    assert out.index("REGRESSION: a gate: low") < out.index(
        "REGRESSION: a baseline: x: drifted 1.0 -> 2.0"
    )


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
    assert len(NAMES) == len(set(NAMES)) == 11
    by_name = {g.name: g for g in GATES}
    assert [n for n in NAMES if by_name[n].deterministic] == [
        "sync", "sweep", "serve", "advisor", "gnn", "ooc",
    ]
    assert [n for n in NAMES if not by_name[n].default] == ["ooc"]
    assert by_name["serve"].rtol == 0 and by_name["sync"].rtol == 1e-6
    for g in GATES:
        if g.deterministic:
            path = REPO / "benchmarks" / f"BENCH_{g.name}.json"
            assert load_baseline(path, g.name) is not None, path
        if g.recorded_in:
            host = by_name[g.recorded_in]
            assert host.deterministic and NAMES.index(host.name) < NAMES.index(g.name)


@pytest.mark.parametrize("flag", _OLD_FLAG_LIST)
def test_deleted_flags_are_usage_errors(flag, tmp_path, capsys):
    assert len(_OLD_FLAG_LIST) == 9
    argv = [flag, "4"] if flag.endswith("tol") else [flag]
    code, _, err = _run(argv, GATES, tmp_path, capsys)
    assert code == 2 and "unrecognized arguments" in err


def test_cli_has_exactly_three_options(tmp_path, capsys):
    code, out, _ = _run(["--help"], GATES, tmp_path, capsys)
    assert code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {
        "--help", "--only", "--check-only", "--update",
    }


@pytest.mark.parametrize("name", ["serve", "advisor", "gnn", "ooc", "sync", "sweep"])
def test_missing_baseline_never_passes_silently(name, tmp_path, capsys):
    """The real rows, an empty baseline directory: exit 2, nothing run."""
    code, out, _ = _run(["--only", name], GATES, tmp_path, capsys)
    assert code == 2
    assert out.strip() == f"no baseline for {name}; run --update --only {name}"


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
    assert named >= 7  # the CI steps alone


def test_docs_gate_table_matches_the_registry():
    """docs/performance.md tabulates the rows: same names, same order,
    same ``--check-only`` membership, a baseline exactly where the row
    declares deterministic fields."""
    text = (REPO / "docs" / "performance.md").read_text()
    text = text.partition("## Running and updating")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", text, flags=re.M)
    assert [name for name, _ in rows] == NAMES
    for (name, rest), gate in zip(rows, GATES):
        cols = [c.strip() for c in rest.split("|")]
        assert len(cols) == 5, name
        deterministic, env, check_only = cols[1], cols[3], cols[4]
        assert (deterministic != "—") == (gate.deterministic is not None), name
        assert check_only == ("no" if gate.wall else "yes"), name
        for var in re.findall(r"REPRO_[A-Z_]+", env):
            assert any(
                var in p.read_text()
                for p in (REPO / "src" / "repro").rglob("*.py")
            ) or var in (REPO / "benchmarks" / "bench_regression.py").read_text(), var


def _gate_subprocess(*only):
    argv = [sys.executable, str(REPO / "benchmarks" / "bench_regression.py")]
    for name in only:
        argv += ["--only", name]
    env = {"PYTHONPATH": f"{REPO / 'src'}:{REPO}", "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=REPO, timeout=300
    )


def test_gates_do_not_depend_on_their_order():
    """serve used to leave the process-wide partition cache pointing
    into its deleted spool, so whatever partitioned next logged a
    persist failure; the driver carried an ordering comment instead."""
    one = _gate_subprocess("serve", "advisor")
    other = _gate_subprocess("advisor", "serve")
    for proc in (one, other):
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "could not persist" not in proc.stdout + proc.stderr
        assert proc.stderr == ""
    assert sorted(one.stdout.splitlines()) == sorted(other.stdout.splitlines())
    assert one.stdout.splitlines()[0].startswith("serve gate")
    assert other.stdout.splitlines()[0].startswith("advisor gate")

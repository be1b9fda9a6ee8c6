"""The harness must catch planted bugs, replay deterministically, and
shrink failures to minimal cases.

The mutation half is the system's mutation-testing suite: each context
manager in :mod:`repro.fuzz.mutations` plants one realistic bug class
(lost mirror update, exchange-table off-by-one, dropped reduce partner,
stale partition-cache entry, wrong CC tie-break, dirty-bit off-by-one,
non-neutral semiring identity, skewed receiver bases in a step apply, a
stale pull workspace, a gathered expansion short one edge per vertex, an
operator that reports a ``-1`` local id)
and the FULL-check fuzz battery must flag every one — plus stay quiet
when nothing is planted.
"""

import contextlib
import datetime
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.fuzz import MUTATIONS, Case, fuzz, shrink_case
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.cli import week_seed
from repro.fuzz.fuzzer import FuzzFailure, _sample_case, _sibling_check
from repro.fuzz.cases import CaseFailure, run_case
from repro.fuzz.mutations import detection_candidates, run_candidates
from repro.la import direction
from repro.validation import reference_kcore_mask


# --------------------------------------------------------------------- #
# mutation detection
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_planted_bug_is_caught(name):
    assert run_candidates(MUTATIONS[name]), (
        f"planted bug {name!r} survived the FULL-check battery"
    )


def test_unmutated_battery_is_clean():
    # the same battery must pass without a planted bug, or the
    # "detections" above would be meaningless
    assert not run_candidates(contextlib.nullcontext)


def _candidate(app: str, shape: str, mutated: bool = False) -> Case:
    return next(c for c in detection_candidates()
                if (c.app, c.shape, bool(c.mutations)) == (app, shape, mutated))


def test_kcore_referee_does_not_share_the_players_expansion():
    """Every layer expands through ``repro.graph.expand``; the kcore
    oracle must not, or a bug there corrupts referee and player alike
    (it caught 0 of 11 fuzz shapes while it did)."""
    case = _candidate("kcore", "rmat64-sym")
    want = reference_kcore_mask(case.graph(), case.k)
    assert 0 < want.sum() < len(want)  # a core that is neither all nor none
    with MUTATIONS["expand-drops-last-edge"]():
        assert np.array_equal(reference_kcore_mask(case.graph(), case.k), want)
        with pytest.raises(CaseFailure, match="disagree with the reference"):
            run_case(case, check="full")


def test_expansion_plant_reaches_the_push_round():
    with MUTATIONS["expand-drops-last-edge"]():
        with pytest.raises(CaseFailure, match="disagree with the reference"):
            run_case(_candidate("bfs", "rmat64"), check="full")


def test_expansion_plant_reaches_the_pull_step(monkeypatch):
    """Planted for the duration of ``pull_step`` only: bfs-do's push
    rounds expand correctly, its pull rounds do not."""
    pull_step = direction.pull_step

    def planted(*args, **kwargs):
        with MUTATIONS["expand-drops-last-edge"]():
            return pull_step(*args, **kwargs)

    monkeypatch.setattr(direction, "pull_step", planted)
    with pytest.raises(CaseFailure, match="disagree with the reference"):
        run_case(_candidate("bfs-do", "rmat64"), check="full")


def test_expansion_plant_reaches_the_serve_delta_sweep():
    """The path's engine frontiers are single vertices (the slice path),
    so only the incremental leg — two chord endpoints — gathers."""
    with MUTATIONS["expand-drops-last-edge"]():
        with pytest.raises(CaseFailure, match="incremental labels diverge"):
            run_case(_candidate("bfs", "path", mutated=True), check="full")


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
def test_sampling_is_pure_in_seed_and_iteration():
    for i in (0, 3, 11):
        assert _sample_case(99, i) == _sample_case(99, i)
    assert _sample_case(99, 1) != _sample_case(100, 1)


def test_fuzz_runs_are_reproducible():
    a = fuzz(seed=42, iterations=8, shrink=False)
    b = fuzz(seed=42, iterations=8, shrink=False)
    assert a.iterations == b.iterations == 8
    assert a.cells_ok == b.cells_ok
    assert a.cells_crashed == b.cells_crashed
    assert [f.case for f in a.failures] == [f.case for f in b.failures]


# --------------------------------------------------------------------- #
# case format
# --------------------------------------------------------------------- #
def test_case_json_roundtrip():
    case = _sample_case(7, 2)
    again = Case.from_json(case.to_json())
    assert again == case


def test_case_rejects_unknown_schema_version():
    case = _sample_case(7, 2)
    data = json.loads(case.to_json())
    data["version"] = 999
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        Case.from_json(json.dumps(data))


def test_case_save_load(tmp_path):
    case = _sample_case(7, 3)
    path = case.save(str(tmp_path / "sub" / "case.json"))
    assert Case.load(path) == case


# --------------------------------------------------------------------- #
# shrinking
# --------------------------------------------------------------------- #
def test_shrink_minimizes_against_predicate():
    n = 12
    src = list(range(n - 1)) + [5, 7, 2]
    dst = list(range(1, n)) + [2, 3, 9]
    case = Case(app="bfs", policy="oec", parts=4, engine="bsp",
                num_vertices=n, src=src, dst=dst,
                fault_plan=[[1, 2]])

    def fails(c):
        return any(s == 0 and d == 1 for s, d in zip(c.src, c.dst))

    shrunk = shrink_case(case, fails=fails)
    assert fails(shrunk)
    assert len(shrunk.src) == 1  # exactly the culprit edge
    assert shrunk.num_vertices == 2  # isolated vertices compacted away
    assert shrunk.parts == 1
    assert shrunk.fault_plan == []
    assert shrunk.note.endswith("(shrunk)")


def test_shrink_keeps_symmetric_graphs_symmetric():
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    src = [a for a, b in pairs] + [b for a, b in pairs]
    dst = [b for a, b in pairs] + [a for a, b in pairs]
    case = Case(app="cc", policy="oec", parts=2, engine="bsp",
                num_vertices=5, src=src, dst=dst)

    def fails(c):
        return any(s == 0 and d == 1 for s, d in zip(c.src, c.dst))

    shrunk = shrink_case(case, fails=fails)
    edges = set(zip(shrunk.src, shrunk.dst))
    assert all((d, s) in edges for s, d in edges), "symmetry broken"
    assert fails(shrunk)


def test_shrink_returns_nonfailing_case_untouched():
    case = Case(app="bfs", policy="oec", parts=2, engine="bsp",
                num_vertices=3, src=[0, 1], dst=[1, 2])
    assert shrink_case(case, fails=lambda c: False) == case


# --------------------------------------------------------------------- #
# sibling differential
# --------------------------------------------------------------------- #
def test_sibling_differential_flags_disagreement():
    case = Case(app="bfs", policy="oec", parts=2, engine="bsp",
                num_vertices=3, src=[0, 1], dst=[1, 2])
    sibling = replace(case, policy="cvc", parts=4)
    store = {}
    assert _sibling_check(case, np.asarray([0, 1, 2]), store) is None
    ok = _sibling_check(sibling, np.asarray([0, 1, 2]), store)
    assert ok is None  # agreement across configs
    bad = _sibling_check(sibling, np.asarray([0, 1, 9]), store)
    assert isinstance(bad, FuzzFailure)
    assert bad.kind == "sibling-differential"


def test_sibling_differential_skips_faulted_and_float_apps():
    store = {}
    faulted = Case(app="bfs", policy="oec", parts=2, engine="bsp",
                   num_vertices=3, src=[0], dst=[1], fault_plan=[[0, 1]])
    assert _sibling_check(faulted, np.asarray([0, 1, 9]), store) is None
    pr = Case(app="pr", policy="oec", parts=2, engine="bsp",
              num_vertices=3, src=[0], dst=[1])
    assert _sibling_check(pr, np.asarray([0.1]), store) is None
    assert store == {}


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_week_seed_is_iso_year_and_week():
    assert week_seed(datetime.date(2020, 1, 1)) == 2020 * 100 + 1
    # Jan 1 2027 falls in ISO week 53 of ISO year 2026
    d = datetime.date(2027, 1, 1)
    iso = d.isocalendar()
    assert week_seed(d) == iso[0] * 100 + iso[1]


def test_cli_deterministic_batch_exits_clean(capsys):
    assert fuzz_main(["--seed", "1", "--iterations", "4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "seed=1" in out and "4 iterations" in out


def test_cli_replays_committed_case(capsys):
    rc = fuzz_main(
        ["--replay", "tests/cases/ccpj_filtered_jump_write.json"]
    )
    assert rc == 0


def test_cli_requires_a_bound():
    with pytest.raises(SystemExit):
        fuzz_main(["--seed", "3"])


def test_cli_writes_failure_cases(tmp_path, capsys):
    # plant a bug, then demand the CLI finds it, shrinks it, and writes
    # a replayable case file
    with MUTATIONS["cc-wrong-tiebreak"]():
        rc = fuzz_main([
            "--seed", "1", "--iterations", "40", "--quiet",
            "--max-failures", "1", "--out", str(tmp_path),
        ])
    assert rc == 1
    cases = list(tmp_path.glob("*.json"))
    assert cases, "no failing case written"
    loaded = Case.load(str(cases[0]))
    assert loaded.app in ("cc", "cc-pj")

"""Replay every committed fuzz case under ``tests/cases/``.

Each JSON file is a shrunk reproducer of a bug the fuzzer once found.
Replaying it at FULL check level must now succeed — or, for bugs whose
fix was to *forbid* the configuration (e.g. bfs-do under BASP), must be
refused with the documented configuration error rather than produce a
wrong answer.  Dropping a file from this directory silently removes a
regression guard; the suite fails if the directory is empty.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError, InvariantViolation, ReproError
from repro.fuzz.cases import Case, CaseFailure, run_case
from tests import golden

#: the golden tables share the directory but are tables of expected
#: results (tests/golden.py), not replayable cases
CASE_FILES = sorted(
    str(p) for p in golden.CASES.glob("*.json")
    if p.name not in {t.file for t in golden.TABLES.values()}
)


def test_case_directory_is_not_empty():
    assert CASE_FILES, "tests/cases/ lost its regression reproducers"


@pytest.mark.parametrize(
    "path", CASE_FILES, ids=[os.path.basename(p) for p in CASE_FILES]
)
def test_replay_committed_case(path):
    _replay(path)


def test_case_recorded_with_a_kernel_still_replays(tmp_path):
    """Cases written while the ``kernel`` axis existed (PRs 6-13) carry
    a ``"kernel"`` key; ``Case.from_json`` drops unknown keys, so such a
    file loads as the same case and replays."""
    for path in CASE_FILES:
        with open(path) as fh:
            data = json.load(fh)
        assert "kernel" not in data
        data["kernel"] = "la"
        old = tmp_path / os.path.basename(path)
        old.write_text(json.dumps(data))
        assert Case.load(str(old)) == Case.load(path)
        _replay(str(old))


def _replay(path):
    case = Case.load(path)
    try:
        labels = run_case(case, check="full")
    except (InvariantViolation, CaseFailure):
        raise  # the original bug is back
    except ConfigurationError:
        # acceptable only when the fix outlawed the configuration —
        # the app must genuinely refuse this engine now
        from repro.apps import get_app

        assert case.engine == "basp" and not get_app(case.app).async_capable
        return
    except ReproError as e:  # pragma: no cover - any other refusal is a bug
        pytest.fail(f"{os.path.basename(path)} refused unexpectedly: {e}")
    if case.fault_plan:
        assert labels is None  # the scheduled crash must still fire
    else:
        assert labels is not None

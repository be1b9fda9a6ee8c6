"""The golden-table registry (``tests/golden.py``) against ``tests/cases/``.

Each table's groups are checked by that table's own tests (one
``golden.check`` call each); here the registry is held to the directory —
every ``*_golden.json`` is a registered table and every row of every file
belongs to a registered group — and to its own failure messages, on
planted files in a temporary cases directory.
"""

import json
import shutil

import pytest

from tests import golden


def test_every_golden_file_is_registered():
    assert golden.unregistered_files() == []


@pytest.mark.parametrize("name", sorted(golden.TABLES))
def test_every_key_belongs_to_a_registered_group(name):
    assert golden.unregistered_keys(name) == []


@pytest.fixture()
def cases(tmp_path):
    """A cases directory holding a copy of the partition table, whose
    ``transforms`` group is cheap to compute."""
    shutil.copy(golden.CASES / "partition_golden.json", tmp_path)
    return tmp_path


def _edit_partition_table(cases, edit):
    path = cases / "partition_golden.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_a_planted_stale_row_fails_naming_table_and_key(cases):
    golden.check("partition", "transforms", cases=cases)
    row = {"undirected": "0" * 40, "reverse": "0" * 40}
    _edit_partition_table(cases, lambda d: d["transforms"].update(ghost=row))
    with pytest.raises(AssertionError, match=r"'partition'.*stale row 'transforms/ghost'"):
        golden.check("partition", "transforms", cases=cases)
    # a row in a group nothing registers is stale to the registry itself
    _edit_partition_table(cases, lambda d: d.update(orphans={"x": row}))
    assert golden.unregistered_keys("partition", cases) == ["orphans/x"]


def test_a_missing_or_moved_row_fails_naming_table_and_key(cases):
    def edit(d):
        del d["transforms"]["rmat8"]
        d["transforms"]["parallel"]["reverse"] = "0" * 40

    _edit_partition_table(cases, edit)
    with pytest.raises(AssertionError) as exc:
        golden.check("partition", "transforms", cases=cases)
    assert str(exc.value).startswith("golden table 'partition'")
    assert "missing row 'transforms/rmat8'" in str(exc.value)
    assert "moved row 'transforms/parallel' (fields ['reverse'])" in str(exc.value)


def test_an_unregistered_golden_file_is_named(cases):
    (cases / "orphan_golden.json").write_text("{}\n")
    assert golden.unregistered_files(cases) == ["orphan_golden.json"]


def test_record_writes_the_committed_serialization(tmp_path, monkeypatch):
    """Every table, recorded from its committed rows into an empty
    directory, is byte-identical to the committed file (``record`` and
    ``recorded`` are inverse, sections included)."""
    monkeypatch.setattr(golden, "compute", lambda name: golden.recorded(name))
    for name, table in golden.TABLES.items():
        golden.record(name, tmp_path)
        assert (tmp_path / table.file).read_bytes() == (
            golden.CASES / table.file
        ).read_bytes(), name

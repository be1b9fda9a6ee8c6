"""Golden tables: behaviour pinned as data recorded at a parent commit.

Each table is one entry of :data:`TABLES`: a JSON file under
``tests/cases/`` and the test module that keeps the table's inputs, row
functions and digests.  That module exports ``GROUPS`` — ``{group: rows
function}``, each rows function returning its group's rows keyed as the
file keys them (``"section/key"`` in a file that nests rows under
sections).  A key belongs to the group it equals or is nested under
(``partitions/rmat8/cvc/4`` to ``partitions/rmat8``); a table whose keys
do not nest under their group also exports ``group_of(key)``.
:func:`check` is the one comparison (none missing, none stale, none
moved, under every environment the entry lists), and ::

    python -m tests.golden record [NAME ...]

rewrites the named tables (all by default) from the ``repro`` on
``PYTHONPATH``: recording at a parent commit is the same command under
``PYTHONPATH=<parent clone>/src``.  docs/correctness.md, "Golden
tables", says what each table pins and where it was recorded.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

CASES = Path(__file__).parent / "cases"


@dataclass(frozen=True)
class Table:
    file: str
    #: the test module exporting ``GROUPS`` (and maybe ``group_of``)
    module: str
    #: the file is ``{section: {key: row}}`` rather than ``{key: row}``
    nested: bool = False
    #: environments every group must reproduce its rows under; the first
    #: is the one a table is recorded in (``None`` unsets a variable)
    envs: tuple[dict[str, str | None], ...] = ({},)


TABLES = {
    "kernel": Table("kernel_golden.json", "tests.test_kernel_golden"),
    "partition": Table(
        "partition_golden.json", "tests.test_partition_golden", nested=True
    ),
    "sync": Table("sync_golden.json", "tests.test_sync_golden", nested=True),
    "dataset": Table("dataset_golden.json", "tests.test_datasets"),
    "incremental": Table(
        "incremental_golden.json", "tests.test_incremental",
        envs=tuple({"REPRO_BLOCK_EDGES": b} for b in (None, "1", "7")),
    ),
    "trace": Table("trace_golden.json", "tests.test_trace_golden", nested=True),
    "study": Table("study_golden.json", "tests.test_paper_claims"),
    "gates": Table("gates_golden.json", "tests.test_gates", nested=True),
    "ooc": Table("ooc_golden.json", "tests.test_ooc", nested=True),
}


def _rows_module(name: str):
    return importlib.import_module(TABLES[name].module)


def group_of(name: str, key: str) -> str | None:
    """The group of table ``name`` that file key ``key`` belongs to."""
    module = _rows_module(name)
    if hasattr(module, "group_of"):
        return module.group_of(key)
    return next((g for g in module.GROUPS if key == g or key.startswith(g + "/")), None)


def normalized(rows):
    """``rows`` as the file stores them (tuples become lists, keys strings)."""
    return json.loads(json.dumps(rows))


def recorded(name: str, cases: Path = CASES) -> dict:
    """The file's rows, flat: ``{"section/key": row}`` for a nested one."""
    table = TABLES[name]
    data = json.loads((Path(cases) / table.file).read_text())
    if not table.nested:
        return data
    return {f"{s}/{k}": row for s, rows in data.items() for k, row in rows.items()}


def compute(name: str, group: str | None = None) -> dict:
    """Rows of one group (every group when ``None``), in the current
    environment."""
    groups = _rows_module(name).GROUPS
    rows = {}
    for g in [group] if group is not None else groups:
        rows.update(groups[g]())
    return normalized(rows)


@contextmanager
def environment(env: dict):
    """``env`` set for the block (a ``None`` value unsets its variable)."""
    with pytest.MonkeyPatch.context() as mp:
        for k, v in env.items():
            if v is None:
                mp.delenv(k, raising=False)
            else:
                mp.setenv(k, v)
        yield


def problems(got: dict, want: dict) -> list[str]:
    """How computed rows ``got`` leave the recorded ``want``: rows the file
    is missing, stale rows only the file has, and moved rows."""
    out = [f"missing row {k!r}" for k in sorted(got.keys() - want.keys())]
    out += [f"stale row {k!r}" for k in sorted(want.keys() - got.keys())]
    for k in sorted(got.keys() & want.keys()):
        if got[k] != want[k]:
            a, b = got[k], want[k]
            fields = (
                sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
                if isinstance(a, dict) and isinstance(b, dict) else None
            )
            out.append(f"moved row {k!r}" + (f" (fields {fields})" if fields else ""))
    return out


def check(name: str, group: str | None = None, *, env: dict | None = None,
          cases: Path = CASES) -> None:
    """Assert that ``group`` (every group when ``None``) reproduces its
    rows of the file: none missing from the file, none stale in it, none
    moved — under ``env``, or under each of the table's environments."""
    table = TABLES[name]
    want = {
        k: row for k, row in recorded(name, cases).items()
        if group is None or group_of(name, k) == group
    }
    for e in [env] if env is not None else table.envs:
        with environment(e):
            found = problems(compute(name, group), want)
        if found:
            where = f"golden table {name!r} ({table.file})"
            if group is not None:
                where += f", group {group!r}"
            if e:
                where += f", under {e}"
            more = f"; ... {len(found) - 8} more" if len(found) > 8 else ""
            raise AssertionError(f"{where}: " + "; ".join(found[:8]) + more)


def unregistered_files(cases: Path = CASES) -> list[str]:
    registered = {t.file for t in TABLES.values()}
    return sorted(
        p.name for p in Path(cases).glob("*_golden.json")
        if p.name not in registered
    )


def unregistered_keys(name: str, cases: Path = CASES) -> list[str]:
    """Keys of the file whose group the table does not register."""
    groups = _rows_module(name).GROUPS
    return sorted(k for k in recorded(name, cases) if group_of(name, k) not in groups)


def record(name: str, cases: Path = CASES) -> Path:
    """Compute every group of ``name`` and write the file."""
    table = TABLES[name]
    with environment(table.envs[0]):
        rows = compute(name)
    if table.nested:
        data: dict = {}
        for key, row in rows.items():
            section, key = key.split("/", 1)
            data.setdefault(section, {})[key] = row
        rows = data
    path = Path(cases) / table.file
    path.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "record" or not set(argv[1:]) <= set(TABLES):
        print(f"usage: python -m tests.golden record [{' | '.join(TABLES)} ...]",
              file=sys.stderr)
        return 2
    for name in argv[1:] or TABLES:
        print(f"{name}: wrote {record(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

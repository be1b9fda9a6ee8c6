"""The snippets a reader copies first are executed, so they cannot rot:
the package docstring's quickstart (it raised ``TypeError`` until PR 23)
and the cookbook's "Per-round telemetry" recipe.  Only the dataset name is
substituted — ``tiny-s`` for the paper-scale stand-in."""

import re
import shlex
import textwrap
from pathlib import Path

import repro
from repro.obs.cli import main as repro_trace

COOKBOOK = Path(__file__).resolve().parent.parent / "docs" / "COOKBOOK.md"


def _on_tiny(code: str, dataset: str) -> str:
    assert code.count(f'"{dataset}"') == 1
    return code.replace(f'"{dataset}"', '"tiny-s"')


def test_package_quickstart_runs(capsys):
    _, _, block = repro.__doc__.partition("Quickstart::\n")
    exec(_on_tiny(textwrap.dedent(block), "rmat23-s"), {})
    assert capsys.readouterr().out.strip()


def test_cookbook_telemetry_recipe_runs(tmp_path, monkeypatch, capsys):
    section = COOKBOOK.read_text().partition("## Per-round telemetry")[2]
    section = section.partition("\n## ")[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    (shell,) = re.findall(r"```bash\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    exec(_on_tiny(code, "uk07-s"), {})
    frontier, ratio = capsys.readouterr().out.splitlines()
    assert frontier.startswith("[") and float(ratio) > 0
    for line in shell.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv.pop(0) == "repro-trace"
        assert repro_trace(argv) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "ph,name,cat,pid,tid,ts_us,dur_us,args"
    assert any(line.startswith("X,round 0,round") for line in lines)
    assert "simulated breakdown" in capsys.readouterr().out

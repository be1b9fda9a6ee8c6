"""Surface audit (ROADMAP item 7): nothing in ``src/repro`` that no
product reaches.

An ``ast`` walk of the import graph — function-level imports included —
from the ``[project.scripts]`` entry points must reach every module under
``src/repro``.  A module outside the walk is unreachable from every CLI:
delete it, or move it beside the benchmark or test that uses it.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules no entry point reaches, each with why it is still in ``src/``.
#: This list may only shrink.
UNREACHED = {
    "repro.metrics.perfbaseline":
        "gate harness, reached only by benchmarks/bench_regression.py",
    "repro.serve.bench":
        "serve gate measurement, reached only by benchmarks/bench_regression.py",
}


def _modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules ``name`` imports, anywhere in its body."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: climb from this module's package
                pkg = package.split(".")
                up = pkg[: len(pkg) - node.level + 1]
                base = ".".join(up + ([base] if base else []))
            found.add(base)
            # ``from pkg import name`` imports a submodule when it is one
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {m for m in found if m in modules}


def reachable(entries, modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = list(entries)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        # importing a.b.c runs a/__init__ and a/b/__init__ first
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(_imports(name, modules[name], modules))
    return seen


def entry_points() -> list[str]:
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return sorted(target.partition(":")[0] for target in scripts.values())


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    entries = entry_points()
    assert len(entries) == 5 and set(entries) <= set(modules)
    unreached = set(modules) - reachable(entries, modules)
    assert unreached == set(UNREACHED), (
        "modules no [project.scripts] entry point imports: "
        f"{sorted(unreached - set(UNREACHED))}; allow-listed modules that "
        f"are reached (or gone) and must leave the list: "
        f"{sorted(set(UNREACHED) - unreached)}"
    )

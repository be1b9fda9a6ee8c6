"""Surface audit (ROADMAP item 7): nothing in ``src/repro`` that no
product reaches.

Four rules.  **Modules** (absolute): an ``ast`` walk of the import graph —
function-level imports included — from the ``[project.scripts]`` entry
points must reach every module under ``src/repro``.  A module outside
the walk is unreachable from every CLI: delete it, or move it beside the
benchmark or test that uses it.  **Names**: every public top-level
function, class and method under ``src/repro`` must occur as an
identifier — a name or an attribute, not an import or an ``__all__``
string — somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside
its own ``def``.  A name only tests mention goes with its tests, or onto
:data:`TEST_ONLY` with the reason it is kept; that list may only shrink.
**Layering**: on the same import walk, no module of a layer the vertex
programs are built on (:data:`BELOW_APPS`) imports ``repro.apps`` — a
kernel two layers need lives in the lower one.  **One tracer route**
(DESIGN.md, "Instrumentation contract"): outside ``repro.obs`` no public
function or method, ``__init__`` included, takes a ``tracer`` parameter,
and nothing under ``src/repro`` compares a tracer with ``None`` — the
ambient tracer is the only delivery and ``NULL_TRACER`` the only "off".
**Fields are written in place** (DESIGN.md, "Field state is flat"): under
``repro.apps`` and ``repro.gnnflow`` nothing outside ``init_state`` assigns
``state["<declared field>"]`` — the engine turned that array into a view
of the field's flat array, and a rebound one is invisible to every sync.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Public names no product, bench or example mentions, each with why it
#: is still in ``src/``.  This list may only shrink.
TEST_ONLY = {
    "price_batch_scalar":
        "per-message pricing oracle the batch path is held to (repro.check.oracle)",
    "bsp_sync":
        "one-call reduce + broadcast step the comm tests drive Gluon with",
    "from_packed": "wire format of a Bitset: the property tests round-trip it",
    "to_packed": "wire format of a Bitset: the property tests round-trip it",
    "test": "single-bit probe the bitset property tests read results with",
    "from_networkx": "reference interop: tests build inputs from networkx graphs",
    "to_networkx": "reference interop: tests hand graphs to networkx oracles",
    "relabel": "vertex permutation, exercised by the transform tests",
    "insert_edges": "one-sided EdgeBatch shorthand the mutation and serve tests write",
    "delete_edges": "one-sided EdgeBatch shorthand the mutation and serve tests write",
    "imbalance": "BlockCost max/mean, asserted by the load-balancer tests",
    "transfer_time":
        "closed-form single-link transfer time the hw and contention tests "
        "check validation and scaling with",
}


#: the layers ``repro.apps`` is built on; none of them may import it
BELOW_APPS = ("graph", "partition", "comm", "la", "engine", "validation")


def _modules() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imported_names(name: str, path: Path) -> set[str]:
    """Every dotted name ``name`` imports, anywhere in its body."""
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
    return found


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules ``name`` imports, anywhere in its body."""
    return {m for m in _imported_names(name, path) if m in modules}


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
    assert not unreached, (
        f"modules no [project.scripts] entry point imports: {sorted(unreached)}"
    )


def _apps_importers(modules: dict[str, Path]) -> dict[str, list[str]]:
    """Modules under :data:`BELOW_APPS` that import ``repro.apps`` or
    anything beneath it (whether or not the target exists)."""
    out = {}
    for name, path in modules.items():
        if name.partition(".")[2].partition(".")[0] not in BELOW_APPS:
            continue
        hits = sorted(
            m for m in _imported_names(name, path)
            if m == "repro.apps" or m.startswith("repro.apps.")
        )
        if hits:
            out[name] = hits
    return out


def test_no_layer_below_the_apps_imports_them():
    assert not _apps_importers(_modules())


def test_the_layering_rule_sees_a_function_level_import(tmp_path):
    """What ``la/spmv.py`` did until PR 22, planted inside a function."""
    planted = tmp_path / "spmv.py"
    planted.write_text(
        "def spmsv_push():\n"
        "    from repro.apps.common import expand_edges\n"
    )
    assert _apps_importers({"repro.la.spmv": planted}) == {
        "repro.la.spmv": ["repro.apps.common", "repro.apps.common.expand_edges"]
    }


def _second_tracer_route(modules: dict[str, Path]) -> tuple[list, list]:
    """``(parameters, comparisons)``: public signatures outside
    ``repro.obs`` with a parameter named ``tracer``, and every
    ``<x>tracer is None`` / ``is not None`` test in any module."""
    parameters, comparisons = [], []
    for name, path in sorted(modules.items()):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = node.name == "__init__" or not node.name.startswith("_")
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if (
                    public
                    and name.split(".")[:2] != ["repro", "obs"]
                    and any(p.arg == "tracer" for p in params)
                ):
                    parameters.append(f"{name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Compare):
                left = node.left
                ident = getattr(left, "id", None) or getattr(left, "attr", "")
                if (
                    ident.endswith("tracer")
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value is None
                ):
                    comparisons.append(f"{name}:{node.lineno}")
    return sorted(parameters), sorted(comparisons)


def test_the_ambient_tracer_is_the_only_route():
    parameters, comparisons = _second_tracer_route(_modules())
    assert not parameters, f"a tracer is read, not passed: {parameters}"
    assert not comparisons, f"the tracer is never None: {comparisons}"


def test_the_tracer_rule_sees_a_parameter_and_a_none_test(tmp_path):
    """What ``GluonComm`` did until PR 23 (the parent tree: 5 signatures,
    44 comparisons); a private helper may still be handed the tracer."""
    planted = tmp_path / "gluon.py"
    planted.write_text(
        "class GluonComm:\n"
        "    def __init__(self, pg, tracer=None):\n"
        "        self.tracer = tracer if tracer is not None else None\n"
        "    def _make(self, tracer):\n"
        "        if self.tracer is None:\n"
        "            return\n"
    )
    assert _second_tracer_route({"repro.comm.gluon": planted}) == (
        ["repro.comm.gluon:2 __init__"],
        ["repro.comm.gluon:3", "repro.comm.gluon:5"],
    )
    assert _second_tracer_route({"repro.obs.demo": planted})[0] == []


def _field_rebinds(modules: dict[str, Path]) -> list[str]:
    """``state["<field>"] = ...`` outside ``init_state``, for every field
    a ``FieldSpec(name="<field>", ...)`` in ``modules`` declares."""
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
    fields = {
        kw.value.value
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "FieldSpec"
        for kw in node.keywords
        if kw.arg == "name" and isinstance(kw.value, ast.Constant)
    }
    rebinds = []
    for name, tree in sorted(trees.items()):
        exempt = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "init_state"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or id(node) in exempt:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if (
                    isinstance(t, ast.Subscript)
                    and getattr(t.value, "id", "") == "state"
                    and isinstance(t.slice, ast.Constant)
                    and t.slice.value in fields
                ):
                    rebinds.append(f"{name}:{node.lineno} {t.slice.value}")
    return rebinds


def test_no_operator_rebinds_a_field_array():
    modules = {
        name: path for name, path in _modules().items()
        if name.split(".")[1:2] in (["apps"], ["gnnflow"])
    }
    assert len(modules) > 10
    rebinds = _field_rebinds(modules)
    assert not rebinds, (
        "a field array is a view of the field's flat array; write it in "
        f"place (state[f][...] = v): {rebinds}"
    )


def test_the_rebind_rule_sees_an_assignment_outside_init_state(tmp_path):
    planted = tmp_path / "bfs.py"
    planted.write_text(
        "class BFS:\n"
        "    def fields(self):\n"
        "        return [FieldSpec(name='dist', dtype=int)]\n"
        "    def init_state(self, part, ctx):\n"
        "        state = {}\n"
        "        state['dist'] = 0\n"
        "        return state\n"
        "    def compute(self, part, ctx, state, frontier):\n"
        "        state['_memo'] = 1\n"
        "        state['dist'][frontier] = 0\n"
        "        state['dist'] += 1\n"
        "        state['dist'] = state['dist'].copy()\n"
    )
    assert _field_rebinds({"repro.apps.bfs": planted}) == [
        "repro.apps.bfs:12 dist"
    ]


def _mentions() -> set[str]:
    """Every identifier used (not defined, imported or quoted) in
    ``src/``, ``benchmarks/`` and ``examples/``."""
    used = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _public_defs() -> dict[str, list[str]]:
    """Public top-level functions and classes, and the public methods of
    top-level classes, under ``src/repro``: name -> where defined."""
    defs: dict[str, list[str]] = {}

    def visit(body, path, owner=""):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_"):
                where = f"{path.relative_to(ROOT)}:{node.lineno} {owner}{node.name}"
                defs.setdefault(node.name, []).append(where)
            if isinstance(node, ast.ClassDef) and not owner:
                visit(node.body, path, f"{node.name}.")

    for path in _modules().values():
        visit(ast.parse(path.read_text()).body, path)
    return defs


def test_every_public_name_is_mentioned_by_a_product():
    defs = _public_defs()
    unmentioned = set(defs) - _mentions()
    stray = {n: defs[n] for n in sorted(unmentioned - set(TEST_ONLY))}
    assert not stray, (
        "public names that only tests (or nothing) mention — delete them "
        f"with their tests, or make them private: {stray}"
    )
    stale = sorted(set(TEST_ONLY) - unmentioned)
    assert not stale, f"allow-listed names that are mentioned (or gone): {stale}"

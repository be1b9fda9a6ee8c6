"""Surface audit (ROADMAP item 7): nothing in ``src/repro`` that no
product reaches.

**Modules** (absolute): an ``ast`` walk of the import graph —
function-level imports included — from the ``[project.scripts]`` entry
points must reach every module under ``src/repro``.  A module outside
the walk is unreachable from every CLI: delete it, or move it beside the
benchmark or test that uses it.  **Names**: every public top-level
function, class and method under ``src/repro`` must occur as an
identifier — a name or an attribute, not an import or an ``__all__``
string — somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside
its own ``def``.  A name only tests mention goes with its tests, or onto
:data:`TEST_ONLY` with the reason it is kept; that list may only shrink,
and only a check oracle (a name defined under ``repro.check``) may be on
it.  **Dependencies**: the third-party top-level modules ``src/repro``
imports, function-level imports included, are exactly pyproject's
``[project] dependencies``, and every entry point imports with a
test-only library (networkx) absent.  The run path — every app, the
partition-level extensions, a served trace — runs with scipy absent:
only :mod:`repro.validation`'s sequential oracles use it.
**Layering**: on the same import walk, no module of a layer the vertex
programs are built on (:data:`BELOW_APPS`) imports ``repro.apps`` — a
kernel two layers need lives in the lower one.  **One tracer route**
(DESIGN.md, "Instrumentation contract"): outside ``repro.obs`` no public
function or method, ``__init__`` included, takes a ``tracer`` parameter,
and nothing under ``src/repro`` compares a tracer with ``None`` — the
ambient tracer is the only delivery and ``NULL_TRACER`` the only "off".
**One check-level route** (docs/correctness.md): outside ``repro.check``
no public function or method takes a parameter named ``check``, except
the scope installers in :data:`CHECK_SCOPE_INSTALLERS` — the check level
is ambient, and those are how ``--check`` reaches a pool.
**Fields are written in place** (DESIGN.md, "Field state is flat"): under
``repro.apps`` and ``repro.gnnflow`` nothing outside ``init_state`` assigns
``state["<declared field>"]`` — the engine turned that array into a view
of the field's flat array, and a rebound one is invisible to every sync.
**One fan-out** (docs/performance.md, "The sweep runtime"): nothing under
``src/repro`` names ``ThreadPoolExecutor``, and no module of
:data:`ONE_THREAD` imports ``threading`` or ``concurrent.futures`` — a
cell runs its rounds on one thread, and the sweep's process pool is the
only way cells run side by side.
**One edge order** (DESIGN.md, "Edge order and the partition build"): no
module of ``repro.graph`` but ``repro.graph.order`` calls ``sort``,
``argsort`` or ``lexsort`` — every CSR build, the out-of-core one
included, orders its edges through :func:`repro.graph.order.order_edges`.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Public names no product, bench or example mentions, each with why it
#: is still in ``src/``.  This list may only shrink, and only a check
#: oracle may be on it.
TEST_ONLY = {
    "price_batch_scalar":
        "per-message pricing oracle the batch path is held to (repro.check.oracle)",
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


def _project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def entry_points() -> list[str]:
    return sorted(target.partition(":")[0] for target in _project()["scripts"].values())


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules()
    entries = entry_points()
    assert len(entries) == 5 and set(entries) <= set(modules)
    unreached = set(modules) - reachable(entries, modules)
    assert not unreached, (
        f"modules no [project.scripts] entry point imports: {sorted(unreached)}"
    )


def _third_party(modules: dict[str, Path]) -> set[str]:
    """Top-level modules outside the standard library and ``repro`` that
    ``modules`` import, anywhere in their bodies."""
    found = set()
    for path in modules.values():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_the_runtime_dependencies_are_what_src_imports():
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in _project()["dependencies"]
    }
    assert _third_party(_modules()) == declared


def test_the_dependency_rule_sees_a_function_level_import(tmp_path):
    planted = tmp_path / "builder.py"
    planted.write_text(
        "import os.path\n"
        "from numpy import asarray\n"
        "from . import csr\n"
        "def from_networkx(g):\n"
        "    import networkx as nx\n"
    )
    assert _third_party({"repro.graph.builder": planted}) == {"numpy", "networkx"}


def _run_without(module: str, code: str) -> None:
    """Run ``code`` in a fresh interpreter where importing ``module``
    fails, after importing every entry point."""
    imports = "".join(f"import {m}\n" for m in [*entry_points(), "repro.graph"])
    code = f"import sys\nsys.modules[{module!r}] = None\n{imports}{code}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_the_entry_points_import_without_networkx():
    _run_without("networkx", "")


#: the run path with scipy absent: every app through ``run_task``, the
#: partition-level extensions, and a served trace
_RUN_WITHOUT_SCIPY = """
import os
from repro.apps import APPS, count_triangles, ktruss, run_bc
from repro.engine import RunContext
from repro.generators import load_dataset
from repro.hw import bridges
from repro.partition import partition
from repro.runtime.cells import CellSpec, SystemSpec, run_task
from repro.serve.cli import main as serve

for app in APPS:
    for policy in ("oec", "cvc"):
        out = run_task(CellSpec(
            key=(app, policy), system=SystemSpec.dirgl(policy=policy),
            benchmark=app, dataset="tiny-s", num_gpus=2,
        ))
        assert out.ok, (app, policy, out.failure)
ds = load_dataset("tiny-s")
sym = partition(ds.symmetric(), "cvc", 2)
count_triangles(sym, bridges(2))
ktruss(sym, bridges(2), 3)
g = ds.graph
run_bc(partition(g, "cvc", 2), bridges(2), RunContext(
    num_global_vertices=g.num_vertices, source=ds.source_vertex,
    global_out_degrees=g.out_degrees(),
))
argv = ["--seed", "5", "--requests", "20", "--report", os.devnull, "--quiet"]
assert serve(argv) == 0
"""


def test_the_run_path_needs_no_scipy():
    """scipy backs only :mod:`repro.validation`'s sequential oracles: no
    entry point, app, extension or served request imports it."""
    _run_without("scipy", _RUN_WITHOUT_SCIPY)


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


#: the packages that run a cell's rounds; neither may start a thread
ONE_THREAD = ("engine", "frameworks")


def _second_fanout(modules: dict[str, Path]) -> list[str]:
    """``module: what`` for every module that names ``ThreadPoolExecutor``
    and every :data:`ONE_THREAD` module that imports ``threading`` or
    ``concurrent.futures``."""
    out = []
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text())):
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                ident = node.name
            if ident == "ThreadPoolExecutor":
                out.append(f"{name}: ThreadPoolExecutor")
        if name.partition(".")[2].partition(".")[0] in ONE_THREAD:
            out += [
                f"{name}: {m}" for m in sorted(_imported_names(name, path))
                if m.partition(".")[0] in ("threading", "concurrent")
            ]
    return sorted(set(out))


def test_a_cell_has_one_dispatch_path():
    assert not _second_fanout(_modules())


def test_the_fanout_rule_sees_a_pool_and_a_thread_import(tmp_path):
    """What ``runtime/executors.py`` and its BSP caller were, planted."""
    pool = tmp_path / "sweep.py"
    pool.write_text(
        "import concurrent.futures\n"
        "def fan(fn, xs):\n"
        "    return concurrent.futures.ThreadPoolExecutor(2).map(fn, xs)\n"
    )
    engine = tmp_path / "bsp.py"
    engine.write_text(
        "def run():\n"
        "    import threading\n"
        "    from concurrent.futures import wait\n"
    )
    assert _second_fanout({
        "repro.runtime.sweep": pool, "repro.engine.bsp": engine,
    }) == [
        "repro.engine.bsp: concurrent.futures",
        "repro.engine.bsp: concurrent.futures.wait",
        "repro.engine.bsp: threading",
        "repro.runtime.sweep: ThreadPoolExecutor",
    ]


#: the calls that decide an edge order
SORTS = ("sort", "argsort", "lexsort")


def _second_edge_order(modules: dict[str, Path]) -> list[str]:
    """``module:line call`` for every call of a :data:`SORTS` function or
    method in a ``repro.graph`` module other than ``repro.graph.order``."""
    out = []
    for name, path in modules.items():
        if name.split(".")[:2] != ["repro", "graph"] or name == "repro.graph.order":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                ident = getattr(f, "id", None) or getattr(f, "attr", None)
                if ident in SORTS:
                    out.append(f"{name}:{node.lineno} {ident}")
    return sorted(out)


def test_only_graph_order_sorts_edges():
    assert not _second_edge_order(_modules())


def test_the_edge_order_rule_sees_a_planted_sort(tmp_path):
    """What ``from_edge_chunks`` did until its passes went through
    ``order_edges``, planted; ``repro.graph.order`` itself may sort."""
    planted = tmp_path / "store.py"
    planted.write_text(
        "import numpy as np\n"
        "def scatter(src, dst, seg, rows):\n"
        "    order = np.argsort(src, kind='stable')\n"
        "    seg.sort()\n"
        "    return np.lexsort((seg, rows)), order\n"
    )
    assert _second_edge_order({"repro.graph.store": planted}) == [
        "repro.graph.store:3 argsort",
        "repro.graph.store:4 sort",
        "repro.graph.store:5 lexsort",
    ]
    assert _second_edge_order({"repro.graph.order": planted}) == []
    assert _second_edge_order({"repro.la.spmv": planted}) == []


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


#: the functions that install a check level for a scope (a pool's
#: workers, a serve trace, one fuzz case): the only ``check=`` parameters
CHECK_SCOPE_INSTALLERS = {
    "repro.runtime.sweep:SweepExecutor.__init__",
    "repro.serve.cli:run_trace",
    "repro.fuzz.cases:run_case",
}


def _second_check_route(modules: dict[str, Path]) -> list[str]:
    """``module:line qualname`` of every public function or method
    (``__init__`` included) outside ``repro.check`` that takes a parameter
    named ``check``, the scope installers apart."""
    found = []

    def visit(name, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                a = child.args
                if (
                    (child.name == "__init__" or not child.name.startswith("_"))
                    and any(p.arg == "check" for p in a.posonlyargs + a.args + a.kwonlyargs)
                    and f"{name}:{qualname}" not in CHECK_SCOPE_INSTALLERS
                ):
                    found.append(f"{name}:{child.lineno} {qualname}")
                visit(name, child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(name, child, f"{prefix}{child.name}.")
            else:
                visit(name, child, prefix)

    for name, path in sorted(modules.items()):
        if name.split(".")[:2] != ["repro", "check"]:
            visit(name, ast.parse(path.read_text()), "")
    return found


def test_the_ambient_check_level_is_the_only_route():
    found = _second_check_route(_modules())
    assert not found, f"a check level is read, not passed: {found}"


def test_the_check_rule_sees_an_engine_parameter(tmp_path):
    """What ``BSPEngine`` took until the check level became ambient only;
    the same text under ``repro.check`` is no breach."""
    source = (SRC / "repro" / "engine" / "bsp.py").read_text()
    signature = '        fault_plan=None,\n    ):'
    assert signature in source
    planted = tmp_path / "bsp.py"
    planted.write_text(
        source.replace(
            signature, '        fault_plan=None,\n        check=None,\n    ):'
        )
    )
    (breach,) = _second_check_route({"repro.engine.bsp": planted})
    assert breach.endswith(" BSPEngine.__init__")
    assert _second_check_route({"repro.check.demo": planted}) == []


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


def _public_defs(modules: dict[str, Path]) -> dict[str, list[str]]:
    """Public top-level functions and classes, and the public methods of
    top-level classes, in ``modules``: name -> where defined
    (``module:line owner.name``)."""
    defs: dict[str, list[str]] = {}

    def visit(body, module, owner=""):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if not node.name.startswith("_"):
                where = f"{module}:{node.lineno} {owner}{node.name}"
                defs.setdefault(node.name, []).append(where)
            if isinstance(node, ast.ClassDef) and not owner:
                visit(node.body, module, f"{node.name}.")

    for module, path in modules.items():
        visit(ast.parse(path.read_text()).body, module)
    return defs


def _outside_check(names, defs: dict[str, list[str]]) -> list[str]:
    """The ``names`` defined somewhere other than under ``repro.check``."""
    return sorted(
        n for n in names
        if any(not where.startswith("repro.check.") for where in defs.get(n, ()))
    )


def test_only_a_check_oracle_is_test_only():
    assert not _outside_check(TEST_ONLY, _public_defs(_modules()))


def test_the_test_only_rule_sees_a_planted_shorthand(tmp_path):
    """What ``MutableGraph.insert_edges`` was until it left ``src/``: a
    shorthand only tests wrote, beside an oracle the rule allows."""
    shorthand = tmp_path / "mutable.py"
    shorthand.write_text(
        "class MutableGraph:\n"
        "    def insert_edges(self, src, dst):\n"
        "        return self.apply(EdgeBatch(0, insert_src=src, insert_dst=dst))\n"
    )
    oracle = tmp_path / "oracle.py"
    oracle.write_text("def price_batch_scalar(router, messages):\n    pass\n")
    defs = _public_defs(
        {"repro.graph.mutable": shorthand, "repro.check.oracle": oracle}
    )
    assert _outside_check(
        {"insert_edges", "price_batch_scalar"}, defs
    ) == ["insert_edges"]


def test_every_public_name_is_mentioned_by_a_product():
    defs = _public_defs(_modules())
    unmentioned = set(defs) - _mentions()
    stray = {n: defs[n] for n in sorted(unmentioned - set(TEST_ONLY))}
    assert not stray, (
        "public names that only tests (or nothing) mention — delete them "
        f"with their tests, or make them private: {stray}"
    )
    stale = sorted(set(TEST_ONLY) - unmentioned)
    assert not stale, f"allow-listed names that are mentioned (or gone): {stale}"

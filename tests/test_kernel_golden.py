"""Golden table ``kernel``: the semiring kernels against the deleted loop twins.

Until PR 14 every app carried a hand-rolled loop kernel beside its
:mod:`repro.la` semiring call, and this file ran both and compared them.
The loop bodies are gone; what they computed survives as data.
``tests/cases/kernel_golden.json`` holds, for every cell of the old
equivalence matrix — 7 apps x 13 fuzz shapes x engines x rotating
policies, the 4-policy rmat sweep, the dense bfs-do pull cell — the
``(labels CRC, dtype, rounds, local_rounds_min/max)`` that
``kernel="loop"`` produced at the parent commit ``5d8a8e4``, plus the
deterministic block of the former ``BENCH_la.json`` cell.  The single
path must reproduce every row; ``tests/golden.py`` checks and records the
groups below.  A row that moves is a semantic change to a kernel, never
noise.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np
import pytest

from repro.apps.bfs import DirectionOptBFS
from repro.apps.registry import get_app
from repro.engine import BASPEngine, BSPEngine
from repro.fuzz.cases import Case, make_context
from repro.fuzz.gen import SHAPES, build_shape, dense_graph
from repro.hw import bridges
from benchmarks import perfbaseline
from repro.partition import partition
from tests import golden

#: the four study policies the matrix rotates through
POLICIES = ("cvc", "oec", "iec", "hvc")

#: (app, engines) — bfs-do is BSP-only (async pull is unsound; see
#: test_bfsdo_stays_bsp_only below)
APP_ENGINES = [
    ("bfs", ("bsp", "basp")),
    ("bfs-do", ("bsp",)),
    ("sssp", ("bsp", "basp")),
    ("cc", ("bsp", "basp")),
    ("cc-pj", ("bsp", "basp")),
    ("pr", ("bsp", "basp")),
    ("pr-push", ("bsp", "basp")),
]

#: the cell ``BENCH_la.json`` pinned until the loop/la gate was deleted
BENCH_CELL = ("pr-push", "cvc", "bsp", "uo")

_ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}


def _prepare(shape: str, app_name: str, seed: int):
    """Build one deterministic graph for (shape, app): symmetrized and
    re-weighted for the symmetric apps, exactly like the fuzzer."""
    from repro.graph.transform import add_random_weights, make_undirected

    rng = np.random.default_rng([seed, zlib.crc32(shape.encode())])
    graph = build_shape(shape, rng)
    if app_name in ("cc", "cc-pj"):
        graph = add_random_weights(make_undirected(graph), seed=seed)
    return graph


def golden_row(graph, app_name, engine, policy, parts) -> dict:
    """Run one cell; the fields the loop/la comparison used to assert."""
    app = get_app(app_name)
    case = Case.from_graph(graph, app=app_name, policy=policy, parts=parts,
                           engine=engine)
    ctx = make_context(graph, case)
    pg = partition(graph, policy, parts)
    res = _ENGINES[engine](pg, bridges(parts), app, check_memory=False).run(ctx)
    return {
        "labels_crc": zlib.crc32(np.ascontiguousarray(res.labels).tobytes()),
        "dtype": str(res.labels.dtype),
        "rounds": int(res.stats.rounds),
        "local_rounds_min": int(res.stats.local_rounds_min),
        "local_rounds_max": int(res.stats.local_rounds_max),
    }


def shape_rows(app_name: str, engines) -> dict:
    """Every fuzz shape, policies and partition counts rotating."""
    parts_cycle = (2, 3, 4, 1)
    rows = {}
    for i, shape in enumerate(sorted(SHAPES)):
        graph = _prepare(shape, app_name, seed=17)
        policy = POLICIES[i % len(POLICIES)]
        parts = parts_cycle[i % len(parts_cycle)]
        for engine in engines:
            rows[f"shapes/{app_name}/{shape}/{engine}/{policy}/p{parts}"] = (
                golden_row(graph, app_name, engine, policy, parts)
            )
    return rows


def policy_rows(policy: str) -> dict:
    """Every study policy explicitly, on the richest shape (rmat)."""
    rows = {}
    for app_name, engines in APP_ENGINES:
        graph = _prepare("rmat", app_name, seed=23)
        for engine in engines:
            rows[f"policies/{app_name}/rmat/{engine}/{policy}/p4"] = (
                golden_row(graph, app_name, engine, policy, 4)
            )
    return rows


def pull_rows() -> dict:
    """A dense graph forces bfs-do into pull from round one."""
    graph = dense_graph(12, seed=5)
    return {
        f"pull/bfs-do/dense/bsp/{policy}/p3": golden_row(
            graph, "bfs-do", "bsp", policy, 3
        )
        for policy in POLICIES
    }


def bench_rows() -> dict:
    """The former ``BENCH_la.json`` cell on the ``BENCH_sync`` graph."""
    workload = perfbaseline._Workload(perfbaseline.MATRIX_GRAPH)
    cell = perfbaseline.run_cell(workload, *BENCH_CELL)
    return {f"bench/{cell.key}": cell.deterministic_fields()}


GROUPS = {
    **{f"shapes/{a}": partial(shape_rows, a, e) for a, e in APP_ENGINES},
    **{f"policies/{p}": partial(policy_rows, p) for p in POLICIES},
    "pull": pull_rows,
    "bench": bench_rows,
}


def group_of(key: str) -> str:
    """``shapes/{app}``, ``policies/{policy}``, ``pull`` or ``bench``."""
    group, *rest = key.split("/")
    if group == "shapes":
        return f"{group}/{rest[0]}"
    if group == "policies":
        return f"{group}/{rest[3]}"
    return group


# the ``numpy`` suffix of these IDs dates from the array-backend axis;
# it is kept so the test IDs the floor list names survive its deletion
@pytest.mark.parametrize(
    "app_name", [a for a, _ in APP_ENGINES],
    ids=[f"{a}-numpy" for a, _ in APP_ENGINES],
)
def test_all_shapes_bit_identical(app_name):
    golden.check("kernel", f"shapes/{app_name}")


@pytest.mark.parametrize(
    "policy", POLICIES, ids=[f"{p}-numpy" for p in POLICIES]
)
def test_all_policies_bit_identical(policy):
    golden.check("kernel", f"policies/{policy}")


@pytest.mark.parametrize("group", ["pull"], ids=["numpy"])
def test_direction_pull_bit_identical(group):
    golden.check("kernel", group)


def test_former_bench_la_cell_reproduces():
    """``pr-push/cvc/bsp/uo``: label CRC, rounds, messages, work items,
    bytes and simulated seconds of the deleted ``BENCH_la.json``."""
    golden.check("kernel", "bench")


# ---------------------------------------------------------------------- #
# why bfs-do stays BSP-only
# ---------------------------------------------------------------------- #
def test_bfsdo_stays_bsp_only():
    """The committed fuzz reproducer still diverges under forced-async
    pull with the generic selector.

    Beamer pull finalizes a vertex at its first reached parent, which is
    only the true BFS parent level-synchronously — an algorithmic
    precondition, not an artifact of the old private cache, so porting
    the cache into repro.la.direction cannot (and does not) lift it.
    If this test ever starts failing because the replay *passes*, the
    selector has become async-sound and bfs-do can be re-enabled under
    BASP; until then it stays ``async_capable=False``.
    """
    from repro.apps import registry
    from repro.fuzz.cases import CaseFailure, run_case

    assert DirectionOptBFS.async_capable is False

    case = Case.load(str(golden.CASES / "bfsdo_async_pull_finalize.json"))

    class AsyncDO(DirectionOptBFS):
        async_capable = True

    registry.APPS["bfs-do"] = AsyncDO
    try:
        with pytest.raises(CaseFailure):
            run_case(case, check="full")
    finally:
        registry.APPS["bfs-do"] = DirectionOptBFS


def test_bfsdo_private_pull_cache_is_gone():
    """The old private reverse-graph cache was deleted in favor of
    repro.la.direction's PullPool."""
    import inspect

    from repro.la.direction import PullPool

    source = inspect.getsource(DirectionOptBFS)
    assert "direction.PullPool" in source
    assert "np.minimum.at" not in source  # the hand-rolled pull is gone
    assert hasattr(PullPool, "narrow")

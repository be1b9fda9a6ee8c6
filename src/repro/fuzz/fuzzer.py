"""The randomized differential fuzzer behind ``repro-fuzz``.

Each iteration derives its own child RNG from ``(seed, iteration)`` —
what iteration *i* does is a pure function of the seed, independent of
how many iterations a wall-clock budget lets run.  The iteration draws a
graph shape, an app, a partitioning policy, a partition count, an engine,
the three communication-optimization flags, and occasionally a fault
plan; symmetric apps get the graph symmetrized *before* the edge list
is frozen into the :class:`~repro.fuzz.cases.Case`, so every recorded
case replays exactly.

The cell runs at FULL check level, so three oracles watch every run:

1. the runtime invariant checkers (:mod:`repro.check`);
2. the single-machine references (:mod:`repro.validation`) on the final
   labels (MIS via its independence+maximality oracle);
3. a *sibling differential*: exact-answer apps must produce identical
   labels across every configuration that saw the same graph — a
   mismatch implicates the configuration pair even when both "verified".

Failures are shrunk (:mod:`repro.fuzz.shrink`) and reported as
replayable cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps.registry import SYMMETRIC_APPS
from repro.fuzz.cases import EXACT_APPS, Case, run_case
from repro.fuzz.gen import random_graph

__all__ = ["FuzzFailure", "FuzzReport", "fuzz"]

_PARTS_CHOICES = (1, 2, 3, 4, 5, 8)
_FAULT_PROBABILITY = 0.15
#: fraction of cells that also replay timestamped insert/delete batches
#: through the incremental-vs-full differential (the mutation axis)
_MUTATION_PROBABILITY = 0.35


@dataclass
class FuzzFailure:
    """One failing cell: the original case, its shrunk form, the error."""

    case: Case
    shrunk: Case
    error: str
    kind: str  # exception class name, or "sibling-differential"


@dataclass
class FuzzReport:
    seed: int
    iterations: int = 0
    cells_ok: int = 0
    cells_crashed: int = 0  # fault plan fired: expected missing points
    elapsed: float = 0.0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = (
            "clean" if self.ok else f"{len(self.failures)} FAILURE(S)"
        )
        return (
            f"repro-fuzz seed={self.seed}: {self.iterations} iterations "
            f"({self.cells_ok} verified, {self.cells_crashed} fault-crashed) "
            f"in {self.elapsed:.1f}s -> {verdict}"
        )


def _sample_case(seed: int, iteration: int) -> Case:
    """Draw iteration ``iteration``'s cell — a pure function of the seed."""
    from repro.apps import APPS, get_app
    from repro.graph.transform import add_random_weights, make_undirected
    from repro.partition.cusp import POLICIES

    rng = np.random.default_rng([seed, iteration])
    shape, graph = random_graph(rng)
    app_name = str(rng.choice(sorted(APPS)))
    if app_name in SYMMETRIC_APPS:
        graph = add_random_weights(
            make_undirected(graph), seed=int(rng.integers(0, 2**31 - 1))
        )
    engine = (
        str(rng.choice(["bsp", "basp"]))
        if get_app(app_name).async_capable
        else "bsp"
    )
    parts = int(rng.choice(_PARTS_CHOICES))
    fault_plan = []
    if rng.random() < _FAULT_PROBABILITY:
        fault_plan = [
            [int(rng.integers(0, parts)), int(rng.integers(0, 6))]
        ]
    mutations = []
    if not fault_plan and rng.random() < _MUTATION_PROBABILITY:
        mutations = _sample_mutations(
            rng, graph, symmetric=app_name in SYMMETRIC_APPS
        )
    return Case.from_graph(
        graph,
        mutations=mutations,
        app=app_name,
        policy=str(rng.choice(sorted(POLICIES))),
        parts=parts,
        engine=engine,
        update_only=bool(rng.integers(0, 2)),
        memoize_addresses=bool(rng.integers(0, 2)),
        invariant_filtering=bool(rng.integers(0, 2)),
        fault_plan=fault_plan,
        k=int(rng.integers(1, 5)),
        seed=seed,
        shape=shape,
        note=f"seed={seed} iteration={iteration}",
    )


def _sample_mutations(rng, graph, symmetric: bool) -> list:
    """Draw 1–2 timestamped insert/delete batches for the mutation axis.

    Deletes are sampled from edges *live at that point in the batch
    sequence* (tracked through a shadow :class:`~repro.graph.mutable.
    MutableGraph`, exactly as replay applies them).  Symmetric apps get
    every insert and delete mirrored so the graph the engines see stays
    undirected — the invariant their references assume.
    """
    from repro.graph.mutable import EdgeBatch, MutableGraph

    n = graph.num_vertices
    if not n:
        return []
    shadow = MutableGraph(graph)
    mutations = []
    for ts in range(1, int(rng.integers(1, 3)) + 1):
        ins = [
            (int(rng.integers(n)), int(rng.integers(n)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        live_s, live_d = shadow.edge_list()
        live = list(zip(live_s, live_d))
        k_del = int(rng.integers(0, 3))
        dele = []
        if live and k_del:
            picks = rng.choice(len(live), size=min(k_del, len(live)),
                               replace=False)
            dele = [(int(live[p][0]), int(live[p][1])) for p in picks]
        if symmetric:
            ins = [e for u, v in ins for e in ((u, v), (v, u))]
            dele = [e for u, v in dele for e in ((u, v), (v, u))]
        m = {
            "timestamp": ts,
            "insert": [[u, v] for u, v in ins],
            "delete": [[u, v] for u, v in dele],
        }
        mutations.append(m)
        shadow.apply(EdgeBatch(
            timestamp=ts,
            insert_src=np.asarray([e[0] for e in ins], dtype=np.int64),
            insert_dst=np.asarray([e[1] for e in ins], dtype=np.int64),
            delete_src=np.asarray([e[0] for e in dele], dtype=np.int64),
            delete_dst=np.asarray([e[1] for e in dele], dtype=np.int64),
        ))
    return mutations


def fuzz(
    seed: int,
    iterations: int | None = None,
    budget_seconds: float | None = None,
    shrink: bool = True,
    max_failures: int = 5,
    log=None,
) -> FuzzReport:
    """Run the fuzzer until ``iterations`` or ``budget_seconds`` runs out.

    At least one bound must be given.  Stops early once ``max_failures``
    distinct failures have been collected (each failure costs shrink
    replays; an avalanche of them usually shares one root cause).
    """
    if iterations is None and budget_seconds is None:
        raise ValueError("need an iteration count or a time budget")
    from repro.fuzz.shrink import shrink_case

    report = FuzzReport(seed=int(seed))
    # labels per (graph, app) across sibling configurations this session
    siblings: dict[tuple, tuple[Case, np.ndarray]] = {}
    t0 = time.monotonic()
    i = 0
    while True:
        if iterations is not None and i >= iterations:
            break
        if budget_seconds is not None and time.monotonic() - t0 >= budget_seconds:
            break
        if len(report.failures) >= max_failures:
            break
        case = _sample_case(seed, i)
        i += 1
        report.iterations = i
        failure = None
        try:
            labels = run_case(case, check="full")
        except Exception as e:  # the failure oracle: any exception is a finding
            failure = FuzzFailure(
                case=case, shrunk=case, error=str(e), kind=type(e).__name__
            )
        else:
            if labels is None:
                report.cells_crashed += 1
            else:
                report.cells_ok += 1
                failure = _sibling_check(case, labels, siblings)
        if failure is not None:
            if log:
                log(f"[{i}] FAIL {case.cell_id()}: {failure.error}")
            if shrink and failure.kind != "sibling-differential":
                failure.shrunk = shrink_case(case)
            report.failures.append(failure)
        elif log and i % 25 == 0:
            log(f"[{i}] ok ({report.cells_ok} verified)")
    report.elapsed = time.monotonic() - t0
    return report


def _sibling_check(case, labels, siblings) -> FuzzFailure | None:
    """Exact apps must agree across configs that saw the same graph."""
    if case.app not in EXACT_APPS or case.fault_plan:
        return None
    key = (tuple(case.src), tuple(case.dst), case.num_vertices,
           None if case.weights is None else tuple(case.weights),
           case.app, case.k)
    prior = siblings.get(key)
    if prior is None:
        siblings[key] = (case, labels.copy())
        return None
    prior_case, prior_labels = prior
    if np.array_equal(labels, prior_labels):
        return None
    return FuzzFailure(
        case=case,
        shrunk=case,
        error=(
            f"sibling differential: {case.cell_id()} disagrees with "
            f"{prior_case.cell_id()} on an identical graph"
        ),
        kind="sibling-differential",
    )

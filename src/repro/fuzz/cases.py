"""Replayable fuzz cases: a cell as data, plus the oracle that judges it.

A :class:`Case` pins *everything* a failing configuration needs to replay
bit-for-bit: the exact edge list (post any symmetrization — what you see
is what runs), the app, the partitioning policy and count, the engine,
the three communication-optimization flags, an optional fault plan, and
provenance (fuzzer seed, generator shape).  Cases round-trip through JSON
so shrunk reproducers can live under ``tests/cases/`` and be replayed by
pytest (``tests/test_fuzz_cases.py``) forever.

:func:`run_case` executes the cell at the requested check level and
raises on any breach: an :class:`~repro.errors.InvariantViolation` from
the runtime checkers, or a :class:`CaseFailure` when the final labels
disagree with the single-machine reference (``repro.validation``); MIS —
which has many valid answers — is judged by the independence+maximality
oracle instead.  A cell whose fault plan fires is expected to die with
:class:`~repro.errors.SimulatedCrashError`; that is a missing data point,
not a failure.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.errors import ReproError, SimulatedCrashError

__all__ = ["Case", "CaseFailure", "run_case", "make_context"]

#: bump when the schema changes; loaders reject unknown versions
CASE_VERSION = 1

#: integer-label apps whose answers must match the reference exactly (and
#: match each other across sibling configurations)
EXACT_APPS = frozenset({"bfs", "bfs-do", "sssp", "cc", "cc-pj", "kcore"})


class CaseFailure(ReproError):
    """A fuzz case produced a wrong answer (reference/oracle mismatch)."""


@dataclass
class Case:
    """One fuzz cell, fully pinned for replay."""

    app: str
    policy: str
    parts: int
    engine: str  # "bsp" | "basp"
    num_vertices: int
    src: list = field(default_factory=list)
    dst: list = field(default_factory=list)
    weights: list | None = None
    update_only: bool = True
    memoize_addresses: bool = True
    invariant_filtering: bool = True
    #: ``[[gpu_index, round_index], ...]`` deterministic crash schedule
    fault_plan: list = field(default_factory=list)
    k: int = 2  # kcore threshold
    #: timestamped mutation batches applied *after* the base leg, each
    #: ``{"timestamp": int, "insert": [[s, d], ...], "delete": [[s, d],
    #: ...]}`` — replayed through :class:`repro.graph.mutable.
    #: MutableGraph` and judged by the incremental-vs-full differential;
    #: the default keeps pre-mutation cases loading unchanged
    mutations: list = field(default_factory=list)
    # provenance (ignored by replay)
    seed: int | None = None
    shape: str = ""
    note: str = ""
    version: int = CASE_VERSION

    # ------------------------------------------------------------------ #
    def graph(self):
        from repro.graph.builder import from_edges

        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        w = (
            None
            if self.weights is None
            else np.asarray(self.weights, dtype=np.float32)
        )
        return from_edges(
            src, dst, num_vertices=self.num_vertices, weights=w,
            name=f"fuzz-case-{self.shape or 'graph'}",
        )

    def cell_id(self) -> str:
        flags = "".join(
            c if on else "-"
            for c, on in (
                ("u", self.update_only),
                ("m", self.memoize_addresses),
                ("f", self.invariant_filtering),
            )
        )
        fp = f"+fault{len(self.fault_plan)}" if self.fault_plan else ""
        return (
            f"{self.app}/{self.policy}/p{self.parts}/{self.engine}/{flags}{fp}"
        )

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Case":
        data = json.loads(text)
        version = data.get("version", 0)
        if version != CASE_VERSION:
            raise ReproError(
                f"case schema version {version} != {CASE_VERSION}"
            )
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Case":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def mutation_batches(self) -> list:
        """The :class:`~repro.graph.mutable.EdgeBatch` list this case's
        ``mutations`` field denotes (insert weights derive from the
        timestamp, exactly as the serve layer applies them)."""
        from repro.graph.mutable import EdgeBatch

        batches = []
        for m in self.mutations:
            ins = np.asarray(m.get("insert", ()), dtype=np.int64).reshape(-1, 2)
            dele = np.asarray(m.get("delete", ()), dtype=np.int64).reshape(-1, 2)
            batches.append(EdgeBatch(
                timestamp=int(m["timestamp"]),
                insert_src=ins[:, 0], insert_dst=ins[:, 1],
                delete_src=dele[:, 0], delete_dst=dele[:, 1],
            ))
        return batches

    @classmethod
    def from_graph(cls, graph, **kw) -> "Case":
        w = graph.weights.tolist() if graph.has_weights else None
        return cls(
            num_vertices=graph.num_vertices,
            src=graph.edge_sources().astype(int).tolist(),
            dst=graph.indices.astype(int).tolist(),
            weights=w,
            **kw,
        )


# ---------------------------------------------------------------------- #
def make_context(graph, case: Case):
    """The deterministic run context every fuzz cell uses."""
    from repro.engine.operator import RunContext

    out_deg = graph.out_degrees()
    source = int(np.argmax(out_deg)) if graph.num_vertices else 0
    # degree-driven apps (kcore, mis) run on symmetric graphs, where the
    # undirected degree IS the out-degree; summing in+out would double it
    return RunContext(
        num_global_vertices=graph.num_vertices,
        source=source,
        k=case.k,
        global_out_degrees=out_deg,
        global_degrees=out_deg,
    )


def _verify_labels(case: Case, graph, labels, ctx) -> None:
    from repro.apps.kcore import KCore
    from repro.apps.mis import verify_mis
    from repro.validation import (
        pagerank_close,
        reference_bfs,
        reference_cc,
        reference_kcore_mask,
        reference_pagerank,
        reference_sssp,
    )

    app = case.app
    if app in ("bfs", "bfs-do"):
        ref = reference_bfs(graph, ctx.source)
        ok = np.array_equal(labels, ref)
    elif app == "sssp":
        ref = reference_sssp(graph, ctx.source)
        ok = np.array_equal(labels, ref)
    elif app in ("cc", "cc-pj"):
        ref = reference_cc(graph)
        ok = np.array_equal(labels, ref)
    elif app == "kcore":
        ref = reference_kcore_mask(graph, ctx.k)
        ok = np.array_equal(KCore.in_core(labels.astype(np.int64), ctx.k), ref)
    elif app == "mis":
        ref = "independence+maximality oracle"
        ok = verify_mis(graph, labels)
    elif app in ("pr", "pr-push"):
        ref = reference_pagerank(graph, tol=1e-6, max_iter=2000)
        rtol = 1e-2 if app == "pr-push" else 1e-3
        ok = pagerank_close(labels, ref, rtol=rtol)
    elif app == "gnnflow":
        # gnnflow embeddings legitimately depend on the partitioning
        # (per-partition sampling streams), so there is no single-machine
        # label reference; the oracle is the gather invariants instead.
        # Each round, each local copy of a seed adds a mean of [0, 1)
        # feature values to the seed's embedding — so embeddings are
        # finite, non-negative, zero outside the deterministic union of
        # minibatches, and bounded by rounds x copies.
        from repro.gnnflow.workload import _minibatch, resolve_config

        gcfg = resolve_config(ctx)
        seeded = np.zeros(graph.num_vertices, dtype=bool)
        for r in range(gcfg.num_rounds):
            seeded[_minibatch(gcfg, graph.num_vertices, r)] = True
        ref = "gnn gather property oracle"
        ok = (
            bool(np.all(np.isfinite(labels)))
            and bool(np.all(labels >= 0.0))
            and bool(np.all(labels[~seeded] == 0.0))
            and bool(np.all(labels <= gcfg.num_rounds * case.parts))
        )
    else:  # pragma: no cover - registry and fuzzer stay in sync
        raise ReproError(f"fuzz oracle does not cover app {case.app!r}")
    if not ok:
        raise CaseFailure(
            f"{case.cell_id()}: labels disagree with the reference "
            f"({app}; n={graph.num_vertices}, m={graph.num_edges})"
        )


def run_case(case: Case, check="full", use_cache: bool = True):
    """Replay ``case`` at ``check`` level; raise on any breach.

    Returns the final label vector on success (``None`` when an armed
    fault plan fired, which is the expected outcome for that cell).
    """
    from repro.apps import get_app
    from repro.check import use_check_level
    from repro.comm import CommConfig
    from repro.engine import BASPEngine, BSPEngine
    from repro.engine.faults import FaultPlan
    from repro.hw import bridges
    from repro.partition import partition

    graph = case.graph()
    app = get_app(case.app)
    if case.engine == "basp" and not app.async_capable:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"{case.app} cannot run under basp")
    ctx = make_context(graph, case)
    cfg = CommConfig(
        update_only=case.update_only,
        memoize_addresses=case.memoize_addresses,
        invariant_filtering=case.invariant_filtering,
    )
    engine_cls = {"bsp": BSPEngine, "basp": BASPEngine}[case.engine]
    plan = (
        FaultPlan({int(g): int(r) for g, r in case.fault_plan})
        if case.fault_plan
        else None
    )
    with use_check_level(check):
        pg = partition(graph, case.policy, case.parts, cache=use_cache)
        engine = engine_cls(
            pg,
            bridges(case.parts),
            app,
            comm_config=cfg,
            check_memory=False,
            fault_plan=plan,
        )
        try:
            result = engine.run(ctx)
        except SimulatedCrashError:
            if plan is not None:
                return None  # the expected missing data point
            raise
    _verify_labels(case, graph, result.labels, ctx)
    if case.mutations and plan is None:
        _run_mutation_leg(case, graph, result.labels, ctx, cfg, engine_cls,
                          check, use_cache)
    return result.labels


def _run_mutation_leg(
    case: Case, graph, base_labels, ctx, cfg, engine_cls, check, use_cache
) -> None:
    """Replay the case's mutation batches and cross-check three ways.

    The mutated snapshot is re-run from scratch on the same engine
    configuration and judged against the single-machine reference; then
    the incremental path (:mod:`repro.serve.incremental`) re-derives the
    labels from the *base* leg's answer and must match the from-scratch
    run **bit-for-bit** whenever it claims a delta was exact.  The source
    vertex is pinned to the base leg's choice — incremental labels are
    only comparable against a full run of the same query.
    """
    from repro.apps import get_app
    from repro.check import use_check_level
    from repro.graph.mutable import MutableGraph
    from repro.hw import bridges
    from repro.partition import partition
    from repro.serve.incremental import incremental_run

    mg = MutableGraph(graph, name=f"{graph.name}+mut")
    batches = case.mutation_batches()
    for batch in batches:
        mg.apply(batch)
    new_graph = mg.snapshot()
    ctx2 = replace(make_context(new_graph, case), source=ctx.source)
    with use_check_level(check):
        pg = partition(new_graph, case.policy, case.parts, cache=use_cache)
        engine = engine_cls(
            pg,
            bridges(case.parts),
            get_app(case.app),
            comm_config=cfg,
            check_memory=False,
        )
        full = engine.run(ctx2).labels
    _verify_labels(case, new_graph, full, ctx2)
    incr = incremental_run(case.app, graph, new_graph, batches, base_labels)
    if incr.labels is None:
        return  # full-recompute decision: the engine leg above is it
    if not (np.array_equal(incr.labels, full)
            and incr.labels.tobytes() == full.tobytes()):
        raise CaseFailure(
            f"{case.cell_id()}: incremental labels diverge from the "
            f"from-scratch run after {len(batches)} mutation batch(es) "
            f"({incr.reason})"
        )

"""The round core under both engines (Section III-B).

BSP and BASP are two scheduling policies over one Gluon substrate, so what
they do identically is written once here: :class:`Engine` validates the
constructor arguments and builds the comm/cost/memory models;
:class:`RoundCore` is one run's set-up, its round *stages* (``compute``,
``master``, ``extract``, ``price``, ``apply``, ``next_frontier``) and its
tear-down.  Stages mutate labels, dirty bits and candidate lists and
return values; they never touch a clock — simulated time is each engine's
own policy.

Every synchronized field lives in one flat array (``views[field]``, a
``FieldViews``); ``state[p][field]`` is partition ``p``'s view of it, which
operators write in place.  The sync stages work a batch at a time:
``extract`` returns one ``SendBatch`` for a range of senders, ``price``
prices its columns, ``apply`` delivers a whole step and ``deliver`` what
one receiver drained.  The network leg is the router's: each engine makes
one ``Router`` call per priced batch (``route_step`` for a BSP step,
``schedule_network`` for a BASP flush), and the router returns the flat
schedule in one vectorized pass when nothing aggregates or queues — the
advisor's flat pricing (``CostModel.price_round``) runs no per-message
loop either.  They reach the comm and cost layers through the
instance (``self.comm.apply_reduce``, ``self.cost.router.price_batch``,
...) at call time, never through a bound method captured earlier — the
layered benchmark shims those names on the classes.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.check import (
    MonotoneWatch,
    check_field_views,
    check_final_stats,
    check_operator_ids,
    check_partition,
    check_post_sync,
    current_check_level,
)
from repro.comm.buffers import Delivery
from repro.comm.gluon import FieldViews, GluonComm
from repro.engine.costmodel import CostModel
from repro.engine.operator import RunContext, SyncStep
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, InvariantViolation
from repro.hw.memory import MemoryModel
from repro.idset import unique_ids
from repro.loadbalance.base import get_balancer
from repro.metrics.stats import RunStats

__all__ = ["Engine", "RoundCore"]

_EMPTY = np.empty(0, dtype=np.int64)

#: the ``RunStats`` fields the ``run_summary`` instant carries
_RUN_SUMMARY = (
    "execution_time", "max_compute", "min_wait", "device_comm", "rounds",
    "num_messages", "inter_host_messages", "comm_volume_bytes",
)


class Engine:
    """Constructor half of the core: validate everything, then build."""

    def __init__(
        self, pg, cluster, app, comm_config, balancer, scale_factor,
        memory_profile, check_memory, overlap_comm, fault_plan,
    ):
        """The arguments both engines share (the engines document their
        own).  The invariant-checking level is the ambient one (see
        :mod:`repro.check`), read once here.  Every argument is validated
        before ``GluonComm`` builds the sync plan, so a bad configuration
        never pays for one."""
        if isinstance(balancer, str):
            balancer = get_balancer(balancer)
        if not 0.0 <= overlap_comm <= 1.0:
            raise ConfigurationError("overlap_comm must be within [0, 1]")
        self.check_level = current_check_level()
        self.pg = pg
        self.cluster = cluster
        self.app = app
        self.comm = GluonComm(pg, app.fields(), comm_config)
        self.cost = CostModel(cluster, balancer, scale_factor)
        self.memory = MemoryModel(memory_profile, scale_factor)
        self.check_memory = check_memory
        self.overlap_comm = float(overlap_comm)
        self.fault_plan = fault_plan


class RoundCore:
    """One run's shared state, round stages and tear-down.

    ``candidates`` arguments are per-partition lists of activated-ID
    arrays (BSP's per-round candidate sets, BASP's pending buffers); the
    stages append to ``candidates[pid]`` and ``next_frontier`` merges one.
    """

    def __init__(self, engine: Engine, ctx: RunContext):
        pg, app = engine.pg, engine.app
        self.pg, self.app, self.ctx = pg, app, ctx
        self.comm, self.cost = engine.comm, engine.cost
        #: the ambient tracer of *this run* (spans: compute/sync/round)
        self.tracer = tracer = obs.current_tracer()
        self.P = P = pg.num_partitions
        if tracer.enabled:
            for p in range(P):
                tracer.thread_name(p, f"partition {p}")
            tracer.thread_name(P, "engine")
        self.run_ev = self.begin(
            f"{engine.execution_model}.run", "engine", P, benchmark=app.name,
            dataset=pg.global_graph.name,
        )

        self.stats = RunStats(
            benchmark=app.name,
            dataset=pg.global_graph.name,
            policy=pg.policy,
            num_gpus=P,
            replication_factor=pg.replication_factor,
        )
        usage = engine.memory.usage(
            engine.cluster,
            pg.local_vertex_counts(),
            pg.local_edge_counts(),
            num_label_fields=len(app.fields()),
            weighted=pg.global_graph.has_weights,
            check_memory=engine.check_memory,
        )
        self.stats.memory_max_bytes = usage.max_bytes
        self.stats.memory_mean_bytes = usage.mean_bytes

        self.state = [app.init_state(p, ctx) for p in pg.parts]
        # re-home every synchronized field into one flat array, a field
        # at a time (one transient copy): state[p][f] becomes a view
        self.views: dict[str, FieldViews] = {}
        for f in app.field_names():
            views = self.views[f] = FieldViews([s[f] for s in self.state])
            for s, view in zip(self.state, views):
                s[f] = view
        self.frontier = [
            app.initial_frontier(part, ctx, s) for part, s in zip(pg.parts, self.state)
        ]
        self.plan = app.sync_plan()
        self.activating = app.activating_fields()
        self.topology = app.driven != "data"

        # two-level sync: the router's one network-leg scheduler
        # (``Router.schedule_network``) aggregates cross-host messages
        self.hier = self.comm.config.hierarchical

        # (field, phase) -> may several in-flight records to one receiver
        # be applied as one delivery?  Reductions and min/max merges
        # commute into the same changed *set*; an overwriting broadcast
        # does not (A -> B -> A changes twice, A -> A never)
        self.groupable = {
            (f.name, phase): phase == "reduce" or f.reduce_op in ("min", "max")
            for f in app.fields() for phase in ("reduce", "broadcast")
        }
        # a static frontier is priced once per partition per run
        self.static = app.static_frontier
        self._compute_t: list = [None] * P
        self._frontiers: list = [None] * P

        # invariant checking: two precomputed booleans keep the per-round
        # cost at OFF to exactly these falsy tests
        self.check_cheap = bool(engine.check_level)
        self.check_full = engine.check_level >= 2  # CheckLevel.FULL
        self.watch = None
        if self.check_cheap:
            check_partition(pg, engine.check_level)
            check_field_views(self.state, self.views)
            if self.check_full:
                self.watch = MonotoneWatch(app.fields(), P)

    def begin(self, name: str, cat: str, tid: int, **args):
        """Open a span with ``args`` (``None`` when tracing is off, which
        ``tracer.end`` accepts)."""
        return self.tracer.begin(name, cat, tid=tid, args=args)

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def _note(self, p: int, out, candidates) -> None:
        """Dirty bits for what an operator wrote, candidates for what it
        activated (``out`` is a ``RoundOutput`` or a ``MasterOutput``)."""
        if self.check_cheap:
            n = self.pg.parts[p].num_local
            for fname, ids in (*out.updated.items(), ("activated", out.activated)):
                check_operator_ids(self.app.name, p, fname, ids, n)
        for fname, ids in out.updated.items():
            if len(ids):
                self.comm.mark_updated(fname, p, ids)
        if len(out.activated):
            candidates[p].append(out.activated)

    def compute(self, p: int, frontier, candidates, **span):
        """Apply the operator to ``p``'s frontier under a compute span
        (``span``: extra span args).

        Touches only partition-local state (``state[p]``, ``p``'s dirty
        bits, ``candidates[p]``), so calls for different partitions do
        not depend on each other's order.  Returns the ``RoundOutput``
        for the engine to price."""
        if self.static and self.check_cheap:
            seen = self._frontiers[p]
            if seen is None:
                self._frontiers[p] = frontier
            elif seen is not frontier:
                raise InvariantViolation(
                    f"{self.app.name} declares a static frontier but "
                    f"partition {p}'s frontier object changed between rounds",
                    checker="static-frontier",
                )
        ev = self.begin(
            "compute", "compute", p, **span, frontier_size=len(frontier)
        )
        out = self.app.compute(self.pg.parts[p], self.ctx, self.state[p], frontier)
        self.tracer.end(ev, edges=out.edges_processed)
        self._note(p, out, candidates)
        return out

    def compute_time(self, p: int, out) -> float:
        """Simulated seconds of ``p``'s compute phase.  A static frontier
        has the same degree array every round, so it is priced once."""
        if not self.static:
            return self.cost.compute_time(p, out.frontier_degrees)
        t = self._compute_t[p]
        if t is None:
            t = self._compute_t[p] = self.cost.compute_time(
                p, out.frontier_degrees
            )
        return t

    def master(self, p: int, candidates) -> tuple[int, float]:
        """Run ``p``'s master phase; returns ``(masters touched,
        residual)`` for the engine to price and to test convergence."""
        mout = self.app.master_compute(self.pg.parts[p], self.ctx, self.state[p])
        self._note(p, mout, candidates)
        return sum(len(i) for i in mout.updated.values()), mout.residual

    def extract(self, step: SyncStep, pids: range, gated: bool = False):
        """The reduce/broadcast messages of ``step`` for senders ``pids``
        (a ``range``: every partition in a BSP step, one in a BASP local
        round), as one ``SendBatch``.

        ``gated`` is the async-AS dirty gate.  Without a global round
        clock, AS's "send every round" degenerates into message ping-pong
        that never quiesces, so a BASP partition sends only when the field
        was written since its last send (the dirty bits are maintained
        under AS too); each send still ships the full exchange list in
        AS's wire format."""
        comm, field, kind = self.comm, step.field, step.kind
        if gated and not comm.pending_sends(field, kind, pids.start):
            pids = range(0)
        if kind == "reduce":
            return comm.make_reduce_messages(field, pids, self.views[field])
        return comm.make_broadcast_messages(field, pids, self.views[field])

    def price(self, batch):
        """Price a batch (a BSP sync step, a BASP flush) in one vectorized
        pass."""
        return self.cost.router.price_batch(batch)

    def _apply(self, field, phase, batch) -> np.ndarray:
        """Apply a batch; the flat positions that changed when the field
        activates, nothing otherwise."""
        comm, labels = self.comm, self.views[field]
        if phase == "reduce":
            changed = comm.apply_reduce(field, batch, labels)
        else:
            changed = comm.apply_broadcast(field, batch, labels)
        return changed if field in self.activating else _EMPTY

    def apply(self, batch, candidates) -> None:
        """Deliver a whole sync step in one apply; changed proxies of
        activating fields become candidates on their receivers."""
        changed = self._apply(batch.field, batch.phase, batch)
        if len(changed):
            for dst, ids in self.comm.by_receiver(changed):
                candidates[dst].append(ids)

    def deliver(self, dst: int, drained: dict, candidates) -> None:
        """Deliver what one partition drained: ``drained`` maps (field,
        phase) to its records' ``(targets, values)`` in arrival order.
        The records of a groupable key are one delivery; an overwriting
        broadcast is one delivery per record."""
        base = self.comm.base[dst]
        for (field, phase), (targets, values) in drained.items():
            if self.groupable[field, phase] and len(targets) > 1:
                targets = [np.concatenate(targets)]
                values = [np.concatenate(values)]
            for t, v in zip(targets, values):
                changed = self._apply(field, phase, Delivery(dst, t, v))
                if len(changed):
                    candidates[dst].append(changed - base)

    def next_frontier(self, p: int, bufs: list) -> np.ndarray:
        """``p``'s next active set: topology-driven apps derive it from
        the current state, data-driven ones merge the candidate buffers."""
        part = self.pg.parts[p]
        if self.topology:
            return self.app.initial_frontier(part, self.ctx, self.state[p])
        if not bufs:
            return _EMPTY
        cand = unique_ids(np.concatenate(bufs), part.num_local)
        return self.app.frontier_filter(part, self.ctx, self.state[p], cand)

    def round_sim(self, compute_t, wait_t, device_t, **extra) -> None:
        """Simulated per-phase seconds ride along as an instant so
        `repro-trace summarize` can rebuild the paper's stacked breakdown;
        the spans themselves are wall-timed.  Three ``tolist()`` a call:
        for an enabled tracer only (the callers test)."""
        self.tracer.instant(
            "round_sim", "round", tid=self.P,
            args={**extra, "compute_s": compute_t.tolist(),
                  "wait_s": wait_t.tolist(), "device_s": device_t.tolist()},
        )

    def check_post_sync(self) -> None:
        """FULL check once a sync plan is complete (a BSP round, BASP
        quiescence): masters must dominate their plan partners — and
        ``write_at="master"`` fields agree exactly — on every broadcast
        field."""
        for step in self.plan:
            if step.kind == "broadcast":
                check_post_sync(self.comm, step.field, self.views[step.field])

    # ------------------------------------------------------------------ #
    # tear-down
    # ------------------------------------------------------------------ #
    def finish(self) -> RunResult:
        """Breakdown, final checks, run summary, and the answer gathered
        from master proxies.  The engine has filled in its ``stats``."""
        stats, tracer, app = self.stats, self.tracer, self.app
        stats.finalize_breakdown()
        if self.check_cheap:
            check_final_stats(stats)
            check_field_views(self.state, self.views)
        if tracer.enabled:
            tracer.instant(
                "run_summary", "run", tid=self.P,
                args={k: getattr(stats, k) for k in _RUN_SUMMARY},
            )
            contention = self.cost.router.contention
            if contention is not None:
                # per-resource busy/queue spans for `repro-trace summarize`
                for key, rst in sorted(contention.stats.items()):
                    base = f"contention.{key[0]}.{key[1]}"
                    tracer.count(f"{base}.busy_s", rst.busy_s)
                    tracer.count(f"{base}.queue_s", rst.queue_s)
                    tracer.count(f"{base}.messages", rst.messages)
        tracer.end(self.run_ev, rounds=stats.rounds)
        gather = self.pg.gather_master_labels
        return RunResult(
            labels=gather([s[app.output_field] for s in self.state]),
            stats=stats,
            extra={
                f: gather([s[f] for s in self.state])
                for f in app.extra_outputs
            },
        )

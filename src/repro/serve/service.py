"""The always-on analytics service: a discrete-event request simulator.

Time here is *simulated*: arrivals come stamped from the traffic trace,
executions cost what the cluster simulator says they cost
(``RunStats.execution_time``, the paper-scale seconds), result-cache
hits cost a fixed epsilon, and every latency is completion minus arrival
on that clock.  Wall clock never enters the report, which is what makes
two runs of the same seeded trace byte-identical — the acceptance
criterion the CI smoke job replays.

The request path (docs/serve.md):

1. **result cache** — the answer table, keyed ``(graph content hash,
   app, params)``, answers once the content's first execution has
   completed without failure; a mutation changes the hash (via
   :class:`~repro.graph.mutable.MutableGraph`), so stale answers are
   unreachable by construction.
2. **coalescing** — a request whose ``(graph, app, params, version)``
   matches a queued or in-flight execution joins it and shares its
   completion instead of spawning another run.
3. **admission** — a depth-capped door; shed requests are recorded as
   ``rejected``, not failed.
4. **weighted fair queueing** — queued executions drain smallest
   virtual-finish-tag first across per-client flows.
5. **execution** — content the answer table already holds, completed or
   still in flight, is a ``memo`` execution charged at its recorded
   simulated cost; anything else goes to the backend, which picks
   delta/full and prices the run (:mod:`repro.serve.backend`).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.frameworks.dirgl import DIrGL
from repro.serve.backend import ExecBackend
from repro.serve.queueing import WFQQueue
from repro.serve.traffic import MutationEvent, Request, ServeTrace, batch_from_event

__all__ = ["AnalyticsService", "ServeConfig", "ServeReport"]

#: simulated seconds charged for a result-cache hit
CACHE_COST = 1e-4
#: the report's ``counters`` block, in report order
COUNTERS = (
    "requests", "admitted", "rejected", "failed", "executions", "full_runs",
    "delta_runs", "memo_hits", "coalesced", "cache_hits", "mutations",
    "patches", "repartitions",
)
#: the counter an execution's mode / partition decision lands in
_OUTCOME_COUNTER = {"full": "full_runs", "delta": "delta_runs", "memo": "memo_hits",
                    "patch": "patches", "repartition": "repartitions"}


@dataclass
class ServeConfig:
    """Service policy knobs (the traffic shape, per-client WFQ weights
    included, lives in TrafficConfig)."""

    workers: int = 2
    max_queue_depth: int = 64
    #: the run-every-request baseline the serve gate compares against: no
    #: coalescing, no result cache, no incremental re-execution, no patching
    naive: bool = False
    policy: str = "oec"
    parts: int = 2
    patch_threshold: float = 1.5
    #: re-run every delta through the full path and assert bit-identity
    verify_incremental: bool = False

    def __post_init__(self):
        # zero workers would answer nothing, zero parts partitions nothing
        # and a zero-deep queue admits nothing
        for name in ("workers", "parts", "max_queue_depth"):
            if (value := getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.policy not in DIrGL.supported_policies:
            raise ConfigurationError(
                f"policy must be one of {DIrGL.supported_policies}, "
                f"got {self.policy!r}"
            )


@dataclass
class RequestRecord:
    rid: int
    client: str
    graph_id: str
    app: str
    params: tuple
    arrival: float
    finish: float | None = None
    latency: float | None = None
    served_by: str = ""  # executed | coalesced | cached | rejected | failed
    mode: str = ""  # full | delta | memo (executed/coalesced only)
    labels_crc: int | None = None


@dataclass
class _Answer:
    """What the first execution of one content key produced; no labels,
    snapshot or graph, since the table outlives every execution."""

    labels_crc: int | None
    sim_cost: float
    failure_kind: str
    #: set when that execution completes; until then only a dispatch
    #: (as a memo) may read the record, not an arrival
    completed: bool = False


class _Execution:
    """One (graph, app, params, version) run requests coalesce onto."""

    __slots__ = (
        "graph_id", "app", "params", "version", "snapshot", "graph",
        "chash", "requests", "state", "mode",
    )

    def __init__(self, req: Request, graph):
        self.graph_id = req.graph_id
        self.app = req.app
        self.params = tuple(req.params)
        self.graph = graph
        self.version = graph.version
        self.snapshot = graph.snapshot()
        self.chash = self.snapshot.content_hash()
        self.requests = [req]
        self.state = "queued"
        self.mode = ""  # full | delta | memo, once dispatched

    @property
    def key(self) -> tuple:
        return (self.graph_id, self.app, self.params, self.version)

    @property
    def content_key(self) -> tuple:
        return (self.chash, self.app, self.params)


@dataclass
class ServeReport:
    """Deterministic simulation outcome (no wall clock anywhere)."""

    config: dict
    traffic: dict
    counters: dict
    latency: dict
    per_client: dict
    requests: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"

    def summary(self) -> str:
        c, l = self.counters, self.latency
        return (
            f"serve: {c['requests']} requests "
            f"({c['rejected']} rejected, {c['failed']} failed) | "
            f"exec {c['executions']} (full {c['full_runs']}, "
            f"delta {c['delta_runs']}, memo {c['memo_hits']}) | "
            f"coalesced {c['coalesced']}, cache hits {c['cache_hits']} | "
            f"patch {c['patches']}/repart {c['repartitions']} | "
            f"latency med {l['median']:.6f}s p90 {l['p90']:.6f}s "
            f"max {l['max']:.6f}s | makespan {l['makespan']:.6f}s"
        )


class AnalyticsService:
    """Runs one traffic trace to completion against a backend."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.backend = ExecBackend(config)
        self.wfq = WFQQueue()
        self._free = config.workers
        self._events: list = []  # (time, seq, kind, payload)
        self._seq = 0
        self._pending: dict[tuple, _Execution] = {}
        #: (content hash, app, params) -> what that content's first
        #: execution produced, written at its dispatch: the result cache
        #: and the memo in one table
        self._answers: dict[tuple, _Answer] = {}
        self._records: dict[int, RequestRecord] = {}
        #: every served outcome, counted once, where it happens
        self.counts = dict.fromkeys(COUNTERS, 0)

    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    # ------------------------------------------------------------------ #
    def run(self, trace: ServeTrace) -> ServeReport:
        for client, weight in sorted(trace.config.client_weights.items()):
            self.wfq.set_weight(client, weight)
        self._graphs = trace.build_graphs()
        for ev in trace.events():
            kind = "request" if isinstance(ev, Request) else "mutation"
            self._push(ev.time, kind, ev)
        tracer = obs.current_tracer()
        while self._events:
            now, _, kind, payload = heapq.heappop(self._events)
            if kind == "request":
                self._arrive(now, payload, tracer)
            elif kind == "mutation":
                self._mutate(payload, tracer)
            elif kind == "cached":
                self._finish(now, *payload, "cached", "")
            else:  # completion
                self._complete(now, payload)
            self._pump(now, tracer)
        report = self._report(trace)
        # the trace's ``serve.*`` counters *are* the report's block: each
        # fact is counted once, by its owner, and folded in here
        for name, value in report.counters.items():
            tracer.count(f"serve.{name}", value)
        return report

    def _cached(self, key: tuple) -> int | None:
        """The result cache: the labels CRC of a completed, successful
        answer, outside ``naive``."""
        ans = self._answers.get(key)
        if self.config.naive or ans is None or not ans.completed or ans.failure_kind:
            return None
        return ans.labels_crc

    # ------------------------------------------------------------------ #
    def _arrive(self, now: float, req: Request, tracer) -> None:
        rec = RequestRecord(
            req.rid, req.client, req.graph_id, req.app,
            tuple(tuple(p) for p in req.params), round(req.time, 9),
        )
        self._records[req.rid] = rec
        self.counts["requests"] += 1
        graph = self._graphs[req.graph_id]
        tracer.instant(
            "serve.queue", "serve",
            args={"rid": req.rid, "depth": len(self.wfq)},
        )
        crc = self._cached((graph.content_hash(), req.app, tuple(req.params)))
        if crc is not None:
            self.counts["cache_hits"] += 1
            self._push(round(now + CACHE_COST, 9), "cached", ([req], crc))
            return
        if not self.config.naive:
            ckey = (req.graph_id, req.app, tuple(req.params), graph.version)
            ex = self._pending.get(ckey)
            if ex is not None:
                ex.requests.append(req)
                self.counts["coalesced"] += 1
                tracer.instant(
                    "serve.coalesce", "serve",
                    args={"rid": req.rid, "onto": ex.requests[0].rid,
                          "state": ex.state},
                )
                return
        if len(self.wfq) >= self.config.max_queue_depth:
            self.counts["rejected"] += 1
            rec.served_by = "rejected"
            rec.finish = round(now, 9)
            tracer.instant(
                "serve.admission_reject", "serve", args={"rid": req.rid}
            )
            return
        self.counts["admitted"] += 1
        ex = _Execution(req, graph)
        self._pending[ex.key] = ex
        self.wfq.push(req.client, ex, cost=1.0)

    def _mutate(self, ev: MutationEvent, tracer) -> None:
        self._graphs[ev.graph_id].apply(batch_from_event(ev))
        self.counts["mutations"] += 1
        tracer.instant(
            "serve.mutation", "serve",
            args={"graph": ev.graph_id,
                  "inserts": len(ev.insert_src),
                  "deletes": len(ev.delete_src)},
        )

    def _pump(self, now: float, tracer) -> None:
        """Dispatch the next queued execution the result cache cannot
        answer, if a slot is free: as a memo if its content already has an
        answer, else through the backend.  One is all there can be: an event
        queues at most one execution or frees at most one slot, so after
        every pump either no slot is free or the queue is empty."""
        while self._free > 0 and len(self.wfq):
            ex = self.wfq.pop()
            # the cache may have filled while this execution queued
            crc = self._cached(ex.content_key)
            if crc is None:
                break
            self.counts["cache_hits"] += 1
            del self._pending[ex.key]
            self._push(round(now + CACHE_COST, 9), "cached", (ex.requests, crc))
        else:
            return
        self._free -= 1
        ex.state = "running"
        ev = tracer.begin(
            "serve.exec", "serve",
            args={"batch": [list(ex.key)]},
        )
        ans = self._answers.get(ex.content_key)
        if ans is None:
            res = self.backend.run_batch(ex)
            ans = self._answers[ex.content_key] = _Answer(
                res.labels_crc, res.sim_cost, res.failure_kind
            )
            ex.mode, decision = res.mode, res.partition_decision
        else:
            ex.mode, decision = "memo", ""
        tracer.end(ev, executions=1)
        self.counts["executions"] += 1
        for outcome in (ex.mode, decision):
            if outcome:
                self.counts[_OUTCOME_COUNTER[outcome]] += 1
        self._push(round(now + ans.sim_cost, 9), "completion", ex)

    def _complete(self, now: float, ex: _Execution) -> None:
        self._free += 1
        self._pending.pop(ex.key, None)
        ans = self._answers[ex.content_key]
        ans.completed = True
        if not ans.failure_kind:
            self._finish(now, ex.requests, ans.labels_crc, "executed", ex.mode)
            return
        for req in ex.requests:
            rec = self._records[req.rid]
            rec.served_by = "failed"
            rec.finish = round(now, 9)
            self.counts["failed"] += 1

    def _finish(self, now, requests, labels_crc, served_by, mode) -> None:
        """Answer ``requests``: an execution's first request is
        ``executed`` and the rest ``coalesced``; a cache hit's are all
        ``cached``."""
        for i, req in enumerate(requests):
            rec = self._records[req.rid]
            rec.served_by = "coalesced" if i and served_by == "executed" else served_by
            rec.mode = mode
            rec.labels_crc = labels_crc
            rec.finish = round(now, 9)
            rec.latency = round(now - req.time, 9)

    # ------------------------------------------------------------------ #
    def _report(self, trace: ServeTrace) -> ServeReport:
        records = [self._records[rid] for rid in sorted(self._records)]
        lat = np.asarray(
            [r.latency for r in records if r.latency is not None],
            dtype=np.float64,
        )
        finishes = [r.finish for r in records if r.finish is not None]
        makespan = max(finishes) if finishes else 0.0
        completed = int(len(lat))
        latency = {
            "count": completed,
            "mean": round(float(lat.mean()), 9) if completed else 0.0,
            "median": round(float(np.median(lat)), 9) if completed else 0.0,
            "p90": round(float(np.percentile(lat, 90)), 9) if completed else 0.0,
            "max": round(float(lat.max()), 9) if completed else 0.0,
            "makespan": round(float(makespan), 9),
            "throughput": (
                round(completed / makespan, 9) if makespan else 0.0
            ),
        }
        per_client: dict[str, dict] = {}
        for r in records:
            d = per_client.setdefault(
                r.client, {"requests": 0, "completed": 0, "latency_sum": 0.0}
            )
            d["requests"] += 1
            if r.latency is not None:
                d["completed"] += 1
                d["latency_sum"] += r.latency
        for d in per_client.values():
            d["mean_latency"] = (
                round(d.pop("latency_sum") / d["completed"], 9)
                if d["completed"] else 0.0
            )
        return ServeReport(
            config=asdict(self.config),
            traffic=trace.config.to_json(),
            counters=dict(self.counts),
            latency=latency,
            per_client={k: per_client[k] for k in sorted(per_client)},
            requests=[asdict(r) for r in records],
        )

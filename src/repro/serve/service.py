"""The always-on analytics service: a discrete-event request simulator.

Time here is *simulated*: arrivals come stamped from the traffic trace,
executions cost what the cluster simulator says they cost
(``RunStats.execution_time``, the paper-scale seconds), result-cache
hits cost a fixed epsilon, and every latency is completion minus arrival
on that clock.  Wall clock never enters the report, which is what makes
two runs of the same seeded trace byte-identical — the acceptance
criterion the CI smoke job replays.

The request path (docs/serve.md):

1. **admission** — a depth-capped door; shed requests are recorded as
   ``rejected``, not failed.
2. **result cache** — keyed ``(graph content hash, app, params)``; a
   mutation changes the hash (via :class:`~repro.graph.mutable.
   MutableGraph`), so stale answers are unreachable by construction.
3. **coalescing** — a request whose ``(graph, app, params, version)``
   matches a queued or in-flight execution joins it and shares its
   completion instead of spawning another run.
4. **weighted fair queueing** — queued executions drain smallest
   virtual-finish-tag first across per-client flows.
5. **execution** — the backend picks delta/full/memo and prices the run
   (:mod:`repro.serve.backend`).
"""

from __future__ import annotations

import heapq
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import obs
from repro.serve.backend import ExecBackend, ExecTask
from repro.serve.queueing import AdmissionController, WFQQueue
from repro.serve.traffic import MutationEvent, Request, ServeTrace, batch_from_event

__all__ = ["AnalyticsService", "ServeConfig", "ServeReport"]


@dataclass
class ServeConfig:
    """Service policy knobs (the traffic shape lives in TrafficConfig)."""

    workers: int = 2
    max_queue_depth: int = 64
    coalesce: bool = True
    result_cache_entries: int = 256
    incremental: bool = True
    policy: str = "oec"
    parts: int = 2
    platform: str = "bridges"
    execution: str = "sync"
    patch_mode: str = "auto"
    patch_threshold: float = 1.5
    #: simulated seconds charged for a result-cache hit
    cache_cost: float = 1e-4
    client_weights: dict = field(default_factory=dict)
    verify_incremental: bool = False

    @classmethod
    def naive(cls, **kw) -> "ServeConfig":
        """The run-every-request baseline the serve gate compares against:
        no coalescing, no result cache, no incremental re-execution."""
        kw.setdefault("coalesce", False)
        kw.setdefault("result_cache_entries", 0)
        kw.setdefault("incremental", False)
        kw.setdefault("patch_mode", "never")
        return cls(**kw)


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


class _Execution:
    """One (graph, app, params, version) run requests coalesce onto."""

    __slots__ = (
        "graph_id", "app", "params", "version", "snapshot", "graph",
        "chash", "requests", "state", "created",
    )

    def __init__(self, req: Request, graph, now: float):
        self.graph_id = req.graph_id
        self.app = req.app
        self.params = tuple(req.params)
        self.graph = graph
        self.version = graph.version
        self.snapshot = graph.snapshot()
        self.chash = self.snapshot.content_hash()
        self.requests = [req]
        self.state = "queued"
        self.created = now

    @property
    def key(self) -> tuple:
        return (self.graph_id, self.app, self.params, self.version)


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

    def __init__(self, config: ServeConfig, executor, spool_dir: str):
        self.config = config
        self.backend = ExecBackend(
            executor,
            spool_dir,
            policy=config.policy,
            parts=config.parts,
            platform=config.platform,
            execution=config.execution,
            incremental=config.incremental,
            patch_mode=config.patch_mode,
            patch_threshold=config.patch_threshold,
            verify_incremental=config.verify_incremental,
        )
        self.admission = AdmissionController(config.max_queue_depth)
        self.wfq = WFQQueue()
        for client, weight in sorted(config.client_weights.items()):
            self.wfq.set_weight(client, weight)
        self._free = config.workers
        self._events: list = []  # (time, seq, kind, payload)
        self._seq = 0
        self._pending: dict[tuple, _Execution] = {}
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._records: dict[int, RequestRecord] = {}
        self.coalesced = 0
        self.cache_hits = 0
        self.failed = 0
        self.executions = 0
        self.mutations = 0

    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    def _cache_get(self, key: tuple):
        if not self.config.result_cache_entries:
            return None
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _cache_put(self, key: tuple, value: tuple) -> None:
        if not self.config.result_cache_entries:
            return
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.result_cache_entries:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    def run(self, trace: ServeTrace) -> ServeReport:
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
            else:  # completion
                self._complete(now, payload)
            self._pump(now, tracer)
        report = self._report(trace)
        # the trace's ``serve.*`` counters *are* the report's block: each
        # fact is counted once, by its owner, and folded in here
        for name, value in report.counters.items():
            tracer.count(f"serve.{name}", value)
        return report

    # ------------------------------------------------------------------ #
    def _arrive(self, now: float, req: Request, tracer) -> None:
        rec = RequestRecord(
            req.rid, req.client, req.graph_id, req.app,
            tuple(tuple(p) for p in req.params), round(req.time, 9),
        )
        self._records[req.rid] = rec
        graph = self._graphs[req.graph_id]
        tracer.instant(
            "serve.queue", "serve",
            args={"rid": req.rid, "depth": len(self.wfq)},
        )
        key = (graph.content_hash(), req.app, tuple(req.params))
        hit = self._cache_get(key)
        if hit is not None:
            self.cache_hits += 1
            self._push(
                round(now + self.config.cache_cost, 9), "completion",
                _Done([req], "cached", hit[0], consumed_worker=False),
            )
            return
        if self.config.coalesce:
            ckey = (req.graph_id, req.app, tuple(req.params), graph.version)
            ex = self._pending.get(ckey)
            if ex is not None:
                ex.requests.append(req)
                self.coalesced += 1
                tracer.instant(
                    "serve.coalesce", "serve",
                    args={"rid": req.rid, "onto": ex.requests[0].rid,
                          "state": ex.state},
                )
                return
        if not self.admission.admit(len(self.wfq)):
            rec.served_by = "rejected"
            rec.finish = round(now, 9)
            tracer.instant(
                "serve.admission_reject", "serve", args={"rid": req.rid}
            )
            return
        ex = _Execution(req, graph, now)
        self._pending[ex.key] = ex
        self.wfq.push(req.client, ex, cost=1.0)

    def _mutate(self, ev: MutationEvent, tracer) -> None:
        self._graphs[ev.graph_id].apply(batch_from_event(ev))
        self.mutations += 1
        tracer.instant(
            "serve.mutation", "serve",
            args={"graph": ev.graph_id,
                  "inserts": len(ev.insert_src),
                  "deletes": len(ev.delete_src)},
        )

    def _pump(self, now: float, tracer) -> None:
        ready: list[_Execution] = []
        while self._free > 0 and len(self.wfq):
            ex = self.wfq.pop()
            # the cache may have filled while this execution queued
            hit = self._cache_get((ex.chash, ex.app, ex.params))
            if hit is not None:
                self.cache_hits += 1
                del self._pending[ex.key]
                self._push(
                    round(now + self.config.cache_cost, 9), "completion",
                    _Done(ex.requests, "cached", hit[0],
                          consumed_worker=False),
                )
                continue
            self._free -= 1
            ex.state = "running"
            ready.append(ex)
        if not ready:
            return
        ev = tracer.begin(
            "serve.exec", "serve",
            args={"batch": [list(ex.key[:3]) + [ex.key[3]] for ex in ready]},
        )
        results = self.backend.run_batch([
            ExecTask(ex.graph_id, ex.graph, ex.snapshot, ex.version,
                     ex.app, ex.params)
            for ex in ready
        ])
        tracer.end(ev, executions=len(ready))
        for ex, res in zip(ready, results):
            self.executions += 1
            done = _Done(
                ex.requests, "executed", res.labels_crc,
                mode=res.mode, failure_kind=res.failure_kind,
                cache_key=(ex.chash, ex.app, ex.params),
                pending_key=ex.key, execution=ex,
            )
            self._push(
                round(now + res.sim_cost, 9), "completion", done
            )

    def _complete(self, now: float, done: "_Done") -> None:
        if done.consumed_worker:
            self._free += 1
        if done.pending_key is not None:
            self._pending.pop(done.pending_key, None)
        if done.failure_kind:
            for req in done.requests:
                rec = self._records[req.rid]
                rec.served_by = "failed"
                rec.finish = round(now, 9)
                self.failed += 1
            return
        if done.cache_key is not None:
            self._cache_put(done.cache_key, (done.labels_crc,))
        for i, req in enumerate(done.requests):
            rec = self._records[req.rid]
            rec.served_by = (
                done.served_by if i == 0 or done.served_by == "cached"
                else "coalesced"
            )
            rec.mode = done.mode
            rec.labels_crc = done.labels_crc
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
        counters = {
            "requests": len(records),
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "failed": self.failed,
            "executions": self.executions,
            "full_runs": self.backend.engine_runs,
            "delta_runs": self.backend.delta_runs,
            "memo_hits": self.backend.memo_hits,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "mutations": self.mutations,
            "patches": self.backend.patches,
            "repartitions": self.backend.repartitions,
        }
        return ServeReport(
            config=asdict(self.config),
            traffic=trace.config.to_json(),
            counters=counters,
            latency=latency,
            per_client={k: per_client[k] for k in sorted(per_client)},
            requests=[asdict(r) for r in records],
        )


class _Done:
    """A scheduled completion (execution, cache hit, or failure)."""

    __slots__ = (
        "requests", "served_by", "labels_crc", "mode", "failure_kind",
        "cache_key", "pending_key", "consumed_worker", "execution",
    )

    def __init__(
        self, requests, served_by, labels_crc, mode="", failure_kind="",
        cache_key=None, pending_key=None, consumed_worker=True,
        execution=None,
    ):
        self.requests = requests
        self.served_by = served_by
        self.labels_crc = labels_crc
        self.mode = mode
        self.failure_kind = failure_kind
        self.cache_key = cache_key
        self.pending_key = pending_key
        self.consumed_worker = consumed_worker
        self.execution = execution

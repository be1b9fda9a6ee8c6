"""Deterministic seeded client traffic for the serve simulator.

A trace is pure data: request arrivals (client x graph x app x params)
and mutation events (timestamped insert/delete batches), all drawn from
one ``numpy`` generator seeded by the config.  Everything needed to
rebuild the graphs is part of the config (R-MAT scale / edge factor /
seed per graph), so a trace JSON plus the package version pins a whole
simulation — the CI smoke job replays one and asserts byte-identical
reports across runs.

Request keys are deliberately *hot*: a configurable fraction of arrivals
re-issue the currently hottest (graph, app, params) combination, because
a service whose traffic never repeats a key has nothing to coalesce and
nothing worth caching — the interesting regime is the one the paper's
motivating scenario (interactive analytics over a stored graph)
actually lives in.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.apps.registry import APPS
from repro.errors import ConfigurationError
from repro.generators.rmat import rmat
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.graph.transform import add_random_weights

__all__ = [
    "MutationEvent",
    "Request",
    "ServeTrace",
    "TrafficConfig",
    "generate_trace",
]

#: apps that take a source vertex as a parameter
SOURCE_APPS = frozenset({"bfs", "bfs-do", "sssp"})


@dataclass(frozen=True)
class Request:
    time: float
    rid: int
    client: str
    graph_id: str
    app: str
    #: sorted (name, value) pairs — merged into the run context
    params: tuple = ()


@dataclass(frozen=True)
class MutationEvent:
    time: float
    graph_id: str
    timestamp: int
    insert_src: tuple = ()
    insert_dst: tuple = ()
    delete_src: tuple = ()
    delete_dst: tuple = ()


@dataclass
class TrafficConfig:
    """Knobs for the seeded generator (all deterministic given ``seed``)."""

    seed: int = 0
    num_clients: int = 4
    num_requests: int = 60
    #: mean simulated seconds between arrivals (exponential)
    mean_interarrival: float = 0.02
    apps: tuple = ("bfs", "cc", "pr")
    #: one (scale, edge_factor) R-MAT spec per served graph
    graphs: tuple = ((6, 4.0), (7, 4.0))
    #: distinct source vertices drawn per graph for source apps
    sources_per_graph: int = 2
    #: fraction of arrivals that re-issue the hottest key
    hot_fraction: float = 0.5
    #: a mutation batch lands every N arrivals (0 disables)
    mutate_every: int = 20
    mutation_inserts: int = 4
    mutation_deletes: int = 2
    #: client name (``c0`` ... ``c{num_clients-1}``) -> WFQ weight, finite
    #: and > 0 (unlisted clients weigh 1.0)
    client_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, rule, ok in (
            ("num_clients", ">= 1", self.num_clients >= 1),
            ("num_requests", ">= 0", self.num_requests >= 0),
            ("mean_interarrival", "> 0", self.mean_interarrival > 0),
            ("hot_fraction", "within [0, 1]", 0 <= self.hot_fraction <= 1),
            ("mutate_every", ">= 0", self.mutate_every >= 0),
        ):
            if not ok:
                value = getattr(self, name)
                raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
        if not self.apps or not self.graphs:
            raise ConfigurationError("a trace needs at least one app and one graph")
        for scale, ef in self.graphs:
            # let through, a NaN or infinite edge factor ends in a bare
            # ValueError / OverflowError inside rmat, a negative one
            # silently serves an edgeless graph
            if not (isinstance(scale, (int, np.integer)) and scale >= 0
                    and math.isfinite(ef) and ef >= 0):
                raise ConfigurationError(
                    f"graph spec {scale!r}:{ef!r}: the scale must be an int "
                    f">= 0 and the edge factor finite and >= 0"
                )
        unknown = sorted(set(self.apps) - set(APPS))
        if unknown:
            raise ConfigurationError(f"unknown apps {unknown}; known: {sorted(APPS)}")
        clients = {f"c{i}" for i in range(self.num_clients)}
        for client, weight in self.client_weights.items():
            if client not in clients or not (math.isfinite(weight) and weight > 0):
                raise ConfigurationError(
                    f"client_weights[{client!r}] = {weight!r}: the client must be "
                    f"one of c0..c{self.num_clients - 1} and its weight finite and > 0"
                )

    def to_json(self) -> dict:
        d = asdict(self)
        d["apps"] = list(self.apps)
        d["graphs"] = [list(g) for g in self.graphs]
        return d


@dataclass
class ServeTrace:
    """One generated trace: config echo + time-ordered events."""

    config: TrafficConfig
    requests: list
    mutations: list

    def events(self):
        """All events merged in time order (requests before a mutation
        at the same instant, matching generation order)."""
        merged = [(r.time, 0, i, r) for i, r in enumerate(self.requests)]
        merged += [(m.time, 1, i, m) for i, m in enumerate(self.mutations)]
        merged.sort(key=lambda t: (t[0], t[1], t[2]))
        return [e[-1] for e in merged]

    def build_graphs(self) -> dict[str, MutableGraph]:
        """Materialize the served graphs (base state, no mutations)."""
        out = {}
        for i, (scale, ef) in enumerate(self.config.graphs):
            g = add_random_weights(
                rmat(int(scale), edge_factor=float(ef),
                     seed=self.config.seed * 1000 + i),
                seed=self.config.seed * 1000 + i,
            )
            out[f"g{i}"] = MutableGraph(g, name=f"serve-g{i}")
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config.to_json(),
                "requests": [asdict(r) for r in self.requests],
                "mutations": [asdict(m) for m in self.mutations],
            },
            indent=1, sort_keys=True,
        )


def generate_trace(cfg: TrafficConfig) -> ServeTrace:
    rng = np.random.default_rng(cfg.seed)
    graph_ids = [f"g{i}" for i in range(len(cfg.graphs))]
    # shadow graphs so mutation deletes can sample *currently live* edges
    shadows = ServeTrace(cfg, [], []).build_graphs()

    sources = {}
    for gid in graph_ids:
        n = shadows[gid].num_vertices
        sources[gid] = sorted(
            int(v) for v in rng.choice(n, size=min(cfg.sources_per_graph, n),
                                       replace=False)
        )

    def draw_key():
        gid = graph_ids[int(rng.integers(len(graph_ids)))]
        app = str(cfg.apps[int(rng.integers(len(cfg.apps)))])
        params = ()
        if app in SOURCE_APPS:
            src = sources[gid][int(rng.integers(len(sources[gid])))]
            params = (("source", src),)
        return gid, app, params

    hot_key = draw_key()
    requests: list[Request] = []
    mutations: list[MutationEvent] = []
    now = 0.0
    ts = 0
    for rid in range(cfg.num_requests):
        now += float(rng.exponential(cfg.mean_interarrival))
        now = round(now, 9)
        client = f"c{int(rng.integers(cfg.num_clients))}"
        if rng.random() < cfg.hot_fraction:
            gid, app, params = hot_key
        else:
            gid, app, params = draw_key()
            # the newest cold key becomes the next hot spot half the time,
            # so hotness wanders across the keyspace deterministically
            if rng.random() < 0.5:
                hot_key = (gid, app, params)
        requests.append(Request(now, rid, client, gid, app, params))

        if cfg.mutate_every and (rid + 1) % cfg.mutate_every == 0:
            mid = graph_ids[int(rng.integers(len(graph_ids)))]
            shadow = shadows[mid]
            n = shadow.num_vertices
            ins_s = rng.integers(0, n, size=cfg.mutation_inserts)
            ins_d = rng.integers(0, n, size=cfg.mutation_inserts)
            k_del = min(cfg.mutation_deletes, shadow.num_edges)
            if k_del:
                pick = rng.choice(shadow.num_edges, size=k_del, replace=False)
                live_s, live_d = shadow.edge_list()
                del_s = live_s[pick]
                del_d = live_d[pick]
            else:
                del_s = del_d = np.empty(0, dtype=np.int64)
            ts += 1
            ev = MutationEvent(
                time=round(now + 1e-6, 9), graph_id=mid, timestamp=ts,
                insert_src=tuple(int(v) for v in ins_s),
                insert_dst=tuple(int(v) for v in ins_d),
                delete_src=tuple(int(v) for v in del_s),
                delete_dst=tuple(int(v) for v in del_d),
            )
            mutations.append(ev)
            # mirror exactly how the service applies the event: one batch,
            # deletes before inserts, derived weights off the timestamp
            shadow.apply(batch_from_event(ev))
    return ServeTrace(cfg, requests, mutations)


def batch_from_event(ev: MutationEvent) -> EdgeBatch:
    """The :class:`EdgeBatch` a :class:`MutationEvent` denotes."""
    return EdgeBatch(
        timestamp=ev.timestamp,
        insert_src=np.asarray(ev.insert_src, dtype=np.int64),
        insert_dst=np.asarray(ev.insert_dst, dtype=np.int64),
        delete_src=np.asarray(ev.delete_src, dtype=np.int64),
        delete_dst=np.asarray(ev.delete_dst, dtype=np.int64),
    )

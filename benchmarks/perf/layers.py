"""Layer boundaries of ``src/repro`` and the per-layer metrics.

:func:`boundaries` lists the functions at which one layer calls into
another, each under the name where its *caller* resolves it (a function
imported by name is wrapped in the importing module).  A span key is the
per-layer time metric it feeds without the ``_s`` suffix, so the table
below is the whole mapping from code to metric.
"""

from __future__ import annotations

import importlib
import statistics

from benchmarks.perf.spans import self_times

__all__ = [
    "HOST_TIME_METRICS", "PER_LAYER", "boundaries", "layer_metrics",
    "layer_shares", "tail",
]

ROOT = "pass"

#: (name, unit, better) of every per-layer metric, in report order.
#: BENCHMARK.json's ``per_layer`` repeats this list (test_harness checks).
PER_LAYER = [
    ("generators.load_s", "s", "lower"),
    ("generators.loads", "count", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.symmetrize_s", "s", "lower"),
    ("graph.hash_s", "s", "lower"),
    ("graph.snapshot_s", "s", "lower"),
    ("graph.store_open_s", "s", "lower"),
    ("graph.store_write_s", "s", "lower"),
    ("graph.store_mb", "MiB", "lower"),
    ("partition.build_s", "s", "lower"),
    ("partition.builds", "count", "lower"),
    ("partition.cache_store_s", "s", "lower"),
    ("partition.cache_load_s", "s", "lower"),
    ("partition.cache_self_s", "s", "lower"),
    ("partition.cache_hit_frac", "ratio", "higher"),
    ("partition.disk_mb", "MiB", "lower"),
    ("partition.stats_s", "s", "lower"),
    ("comm.plan_s", "s", "lower"),
    ("comm.extract_s", "s", "lower"),
    ("comm.apply_s", "s", "lower"),
    ("comm.mark_s", "s", "lower"),
    ("comm.price_s", "s", "lower"),
    ("comm.messages", "count", "lower"),
    ("comm.sim_bytes", "B", "lower"),
    ("comm.host_us_per_msg", "us", "lower"),
    ("engine.bsp_self_s", "s", "lower"),
    ("engine.basp_self_s", "s", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.host_us_per_round", "us", "lower"),
    ("engine.sim_s", "s", "lower"),
    ("apps.compute_s", "s", "lower"),
    ("apps.master_s", "s", "lower"),
    ("apps.frontier_s", "s", "lower"),
    ("apps.init_s", "s", "lower"),
    ("apps.edges", "count", "lower"),
    ("apps.host_ns_per_edge", "ns", "lower"),
    ("la.self_s", "s", "lower"),
    ("la.calls", "count", "lower"),
    ("loadbalance.self_s", "s", "lower"),
    ("loadbalance.calls", "count", "lower"),
    ("hw.self_s", "s", "lower"),
    ("frameworks.self_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.cells", "count", "lower"),
    ("runtime.cell_p50_ms", "ms", "lower"),
    ("runtime.cell_tail_ms", "ms", "lower"),
    ("runtime.cell_tail_pct", "%", "higher"),
    ("serve.service_self_s", "s", "lower"),
    ("serve.backend_self_s", "s", "lower"),
    ("serve.incremental_s", "s", "lower"),
    ("serve.traffic_s", "s", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.executions", "count", "lower"),
    ("serve.batch_p50_ms", "ms", "lower"),
    ("serve.batch_tail_ms", "ms", "lower"),
    ("serve.cache_hit_frac", "ratio", "higher"),
    ("serve.coalesced_frac", "ratio", "higher"),
    ("serve.delta_frac", "ratio", "higher"),
    ("serve.patch_frac", "ratio", "higher"),
    ("serve.sim_p50_latency_s", "s", "lower"),
    ("serve.sim_p90_latency_s", "s", "lower"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.host_x", "x", "lower"),
]

#: simulated seconds: results, not host time
_SIMULATED = {"engine.sim_s", "serve.sim_p50_latency_s", "serve.sim_p90_latency_s"}

#: the metrics that are a span key's self time (``<key>_s``)
HOST_TIME_METRICS = [
    name for name, unit, _ in PER_LAYER if unit == "s" and name not in _SIMULATED
]


def boundaries() -> list:
    """Every ``(span key, owner, attribute)`` the traced pass wraps."""
    # import_module, not ``import a.b as x``: the latter binds the
    # *function* where a package re-exports one under its module's name
    # (repro.generators.rmat, .webcrawl)
    mod = importlib.import_module
    gluon = mod("repro.comm.gluon")
    router = mod("repro.comm.router")
    basp = mod("repro.engine.basp")
    bsp = mod("repro.engine.bsp")
    costmodel = mod("repro.engine.costmodel")
    fw_base = mod("repro.frameworks.base")
    datasets = mod("repro.generators.datasets")
    powerlaw = mod("repro.generators.powerlaw")
    rmat = mod("repro.generators.rmat")
    webcrawl = mod("repro.generators.webcrawl")
    csr = mod("repro.graph.csr")
    mutable = mod("repro.graph.mutable")
    store = mod("repro.graph.store")
    memory = mod("repro.hw.memory")
    spmv = mod("repro.la.spmv")
    lb_base = mod("repro.loadbalance.base")
    partition_pkg = mod("repro.partition")
    pcache = mod("repro.partition.cache")
    cusp = mod("repro.partition.cusp")
    cells = mod("repro.runtime.cells")
    sweep = mod("repro.runtime.sweep")
    backend = mod("repro.serve.backend")
    incremental = mod("repro.serve.incremental")
    service = mod("repro.serve.service")
    traffic = mod("repro.serve.traffic")
    from repro.apps.registry import APPS

    out = [
        # generators: the functions load_dataset and the serve trace call
        ("generators.load", datasets, "webcrawl"),
        ("generators.load", datasets, "powerlaw_social"),
        ("generators.load", datasets, "rmat"),
        ("generators.load", datasets, "add_random_weights"),
        ("generators.load", datasets, "_load_store_dataset"),
        ("generators.load", traffic, "rmat"),
        ("generators.load", traffic, "add_random_weights"),
        # graph: from_edges where a generator or a snapshot builds a CSR;
        # inside make_undirected it stays symmetrize time and inside
        # partition.base it stays partition-build time
        ("graph.build", webcrawl, "from_edges"),
        ("graph.build", powerlaw, "from_edges"),
        ("graph.build", rmat, "from_edges"),
        ("graph.build", mutable, "from_edges"),
        ("graph.symmetrize", datasets, "make_undirected"),
        ("graph.symmetrize", incremental, "make_undirected"),
        ("graph.hash", csr.CSRGraph, "content_hash"),
        ("graph.snapshot", mutable.MutableGraph, "apply"),
        ("graph.snapshot", mutable.MutableGraph, "snapshot"),
        ("graph.snapshot", mutable.MutableGraph, "content_hash"),
        ("graph.store_open", store, "open_csr"),
        ("graph.store_write", backend, "write_csr_store"),
        # partition
        ("partition.cache_store", pcache, "save_partitions"),
        ("partition.cache_store", pcache, "save_partition_shards"),
        ("partition.cache_load", pcache, "load_partitions"),
        ("partition.cache_load", pcache, "load_partition_shards"),
        ("partition.cache_self", pcache.PartitionCache, "lookup_or_build"),
        ("partition.cache_self", pcache.PartitionCache, "get"),
        ("partition.cache_self", pcache.PartitionCache, "put"),
        ("partition.stats", partition_pkg, "partition_stats"),
        ("partition.stats", backend, "partition_stats"),
        ("partition.build", backend, "build_partitions"),
        # comm
        ("comm.plan", gluon.GluonComm, "__init__"),
        ("comm.extract", gluon.GluonComm, "make_reduce_messages"),
        ("comm.extract", gluon.GluonComm, "make_broadcast_messages"),
        ("comm.apply", gluon.GluonComm, "apply_reduce"),
        ("comm.apply", gluon.GluonComm, "apply_broadcast"),
        ("comm.mark", gluon.GluonComm, "mark_updated"),
        ("comm.mark", gluon.GluonComm, "pending_sends"),
        ("comm.price", router.Router, "price_batch"),
        ("comm.price", router.Router, "route_step"),
        ("comm.price", router.Router, "legs"),
        # engine
        ("engine.bsp_self", bsp.BSPEngine, "__init__"),
        ("engine.bsp_self", bsp.BSPEngine, "run"),
        ("engine.basp_self", basp.BASPEngine, "__init__"),
        ("engine.basp_self", basp.BASPEngine, "run"),
        # la (the apps call spmv.<fn> through the module)
        ("la.self", spmv, "spmsv_push"),
        ("la.self", spmv, "spmv_pull"),
        ("la.self", spmv, "segment_reduce"),
        # loadbalance / hw
        ("loadbalance.self", lb_base.LoadBalancer, "cost"),
        ("hw.self", costmodel.CostModel, "compute_time"),
        ("hw.self", costmodel.CostModel, "master_time"),
        ("hw.self", memory.MemoryModel, "usage"),
        # frameworks / runtime
        ("frameworks.self", fw_base.Framework, "run"),
        ("runtime.self", sweep, "run_task"),
        ("runtime.self", cells, "run_task"),
        ("runtime.self", sweep.SweepExecutor, "map"),
        # serve
        ("serve.service_self", service.AnalyticsService, "run"),
        ("serve.backend_self", backend.ExecBackend, "run_batch"),
        ("serve.incremental", backend, "incremental_run"),
        ("serve.traffic", traffic.ServeTrace, "build_graphs"),
    ]
    out += [("partition.build", cusp.POLICIES, name) for name in cusp.POLICIES]
    app_keys = {
        "compute": "apps.compute",
        "master_compute": "apps.master",
        "init_state": "apps.init",
        "initial_frontier": "apps.frontier",
        "frontier_filter": "apps.frontier",
    }
    for app in APPS.values():
        for cls in app.__mro__:
            for attr, key in app_keys.items():
                if attr in vars(cls):
                    out.append((key, cls, attr))
    return out


def tail(samples) -> tuple[float, float, float]:
    """``(median, tail value, tail percentile)`` of a sample list.

    The tail is the highest percentile that still has ten samples beyond
    it, and never below the median.
    """
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0, 50.0
    beyond = 10
    idx = max(len(xs) - beyond - 1, len(xs) // 2)
    pct = max(50.0, 100.0 * (1.0 - beyond / len(xs)))
    return statistics.median(xs), xs[idx], pct


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans, outcomes, counts: dict, cell_elapsed, wall_s: float, cache_stats,
    host_x: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced pass.

    ``outcomes`` are the ``CellOutcome``s ``run_task`` returned during the
    traced pass (read at that boundary, so the served trace's engine runs
    count too), ``counts`` what only the workload can read,
    ``cell_elapsed`` the ``CellOutcome.elapsed`` samples pooled over the
    timed passes, ``wall_s`` the untraced median pass in measured seconds,
    ``cache_stats`` the ``CacheStats`` the traced pass accumulated and
    ``host_x`` the run's host calibration.  Host seconds here are as
    measured in the one traced pass, not calibrated.
    """
    seconds, calls = self_times(spans)
    root = next(
        (t1 - t0 for key, _, t0, t1 in spans if key == ROOT), 0.0
    )
    m = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    for name in HOST_TIME_METRICS:
        m[name] = seconds.get(name[:-2], 0.0)

    m["generators.loads"] = calls.get("generators.load", 0)
    m["graph.store_mb"] = counts.get("store_mb", 0.0)
    m["partition.builds"] = cache_stats.builds
    lookups = cache_stats.memory_hits + cache_stats.disk_hits + cache_stats.builds
    m["partition.cache_hit_frac"] = _frac(
        cache_stats.memory_hits + cache_stats.disk_hits, lookups
    )
    m["partition.disk_mb"] = counts.get("disk_mb", 0.0)

    stats = [o.stats for o in outcomes if o.stats is not None]
    messages = sum(int(s.num_messages) for s in stats)
    m["comm.messages"] = messages
    m["comm.sim_bytes"] = sum(float(s.comm_volume_bytes) for s in stats)
    comm_s = m["comm.extract_s"] + m["comm.apply_s"] + m["comm.price_s"]
    m["comm.host_us_per_msg"] = _frac(comm_s * 1e6, messages)

    rounds = sum(int(s.rounds) for s in stats)
    m["engine.rounds"] = rounds
    m["engine.sim_s"] = sum(float(s.execution_time) for s in stats)
    m["engine.host_us_per_round"] = _frac(
        (m["engine.bsp_self_s"] + m["engine.basp_self_s"]) * 1e6, rounds
    )

    m["apps.edges"] = sum(float(s.work_items) for s in stats)
    m["apps.host_ns_per_edge"] = _frac(m["apps.compute_s"] * 1e9, m["apps.edges"])
    m["la.calls"] = calls.get("la.self", 0)
    m["loadbalance.calls"] = calls.get("loadbalance.self", 0)

    m["runtime.cells"] = len(outcomes)
    p50, tail_v, pct = tail(cell_elapsed or [o.elapsed for o in outcomes])
    m["runtime.cell_p50_ms"] = p50 * 1e3
    m["runtime.cell_tail_ms"] = tail_v * 1e3
    m["runtime.cell_tail_pct"] = pct

    requests = counts.get("requests", 0)
    if requests:
        executions = counts["executions"]
        m["serve.requests"] = requests
        m["serve.executions"] = executions
        batches = [
            t1 - t0 for key, _, t0, t1 in spans if key == "serve.backend_self"
        ]
        p50, tail_v, _ = tail(batches)
        m["serve.batch_p50_ms"] = p50 * 1e3
        m["serve.batch_tail_ms"] = tail_v * 1e3
        m["serve.cache_hit_frac"] = _frac(counts["cache_hits"], requests)
        m["serve.coalesced_frac"] = _frac(counts["coalesced"], requests)
        m["serve.delta_frac"] = _frac(counts["delta_runs"], executions)
        m["serve.patch_frac"] = _frac(
            counts["patches"], counts["patches"] + counts["repartitions"]
        )
        m["serve.sim_p50_latency_s"] = counts["sim_p50_latency_s"]
        m["serve.sim_p90_latency_s"] = counts["sim_p90_latency_s"]

    m["trace.overhead_x"] = _frac(root, wall_s)
    m["trace.unattributed_frac"] = _frac(seconds.get(ROOT, 0.0), root)
    m["trace.spans"] = len(spans)
    m["trace.host_x"] = host_x
    return m


def layer_shares(metrics: dict[str, float], traced_s: float) -> dict[str, float]:
    """Share of the traced pass each layer's self time covers."""
    shares: dict[str, float] = {}
    for name in HOST_TIME_METRICS:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + metrics[name]
    return {k: _frac(v, traced_s) for k, v in shares.items()}

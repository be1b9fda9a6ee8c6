"""The serve latency/throughput gate (baseline ``benchmarks/BENCH_serve.json``).

One fixed seeded trace is served twice under the full service policy
(coalescing + result cache + incremental re-execution) and once under
the naive run-every-request baseline.  Everything measured is
*simulated* time, so the whole gate is deterministic and runs in CI:

* the two serve legs must be **byte-identical** (the acceptance
  criterion for the discrete-event loop);
* the serve median latency must beat the naive median by at least
  :data:`SERVE_MIN_SPEEDUP` — the scheduler features have to actually
  pay for themselves;
* no failed requests on either leg;
* every deterministic metric (:data:`DETERMINISTIC_FIELDS`) must match
  the committed baseline exactly — the gate table in
  ``benchmarks/bench_regression.py`` pins them at ``rtol=0``.
"""

from __future__ import annotations

__all__ = [
    "DETERMINISTIC_FIELDS",
    "SERVE_MIN_SPEEDUP",
    "evaluate_serve",
    "measure_serve",
    "serve_traffic",
]

#: the naive baseline's median latency must be at least this many times
#: the serve policy's — coalescing + caching must earn their keep
SERVE_MIN_SPEEDUP = 2.0

#: fields compared exactly against the committed baseline (all simulated,
#: machine-independent)
DETERMINISTIC_FIELDS = (
    "requests",
    "serve_median",
    "serve_mean",
    "serve_p90",
    "serve_makespan",
    "naive_median",
    "naive_mean",
    "naive_makespan",
    "median_speedup",
    "coalesced",
    "cache_hits",
    "delta_runs",
    "serve_executions",
    "naive_executions",
    "mutations",
)


def serve_traffic():
    """The gate's fixed workload: hot keys, mutations, tight arrivals."""
    from repro.serve.traffic import TrafficConfig

    return TrafficConfig(
        seed=5,
        num_clients=4,
        num_requests=80,
        mean_interarrival=0.002,
        apps=("bfs", "cc", "pr"),
        graphs=((6, 4.0), (7, 4.0)),
        mutate_every=10,
    )


def measure_serve(jobs: int = 2) -> dict:
    """Serve the gate trace (twice) and its naive counterpart (once)."""
    from repro.serve.cli import run_trace
    from repro.serve.service import ServeConfig
    from repro.serve.traffic import generate_trace

    trace = generate_trace(serve_traffic())
    first = run_trace(trace, ServeConfig(workers=2), jobs=jobs)
    second = run_trace(trace, ServeConfig(workers=2), jobs=jobs)
    naive = run_trace(trace, ServeConfig.naive(workers=2), jobs=jobs)
    s, n = first.latency, naive.latency
    return {
        "jobs": jobs,
        "requests": first.counters["requests"],
        "serve_median": s["median"],
        "serve_mean": s["mean"],
        "serve_p90": s["p90"],
        "serve_makespan": s["makespan"],
        "naive_median": n["median"],
        "naive_mean": n["mean"],
        "naive_makespan": n["makespan"],
        "median_speedup": round(n["median"] / s["median"], 6),
        "coalesced": first.counters["coalesced"],
        "cache_hits": first.counters["cache_hits"],
        "delta_runs": first.counters["delta_runs"],
        "serve_executions": first.counters["executions"],
        "naive_executions": naive.counters["executions"],
        "mutations": first.counters["mutations"],
        "serve_failed": first.counters["failed"],
        "naive_failed": naive.counters["failed"],
        "deterministic": first.to_json() == second.to_json(),
    }


def evaluate_serve(sp: dict) -> list[str]:
    """Structural gate violations for one :func:`measure_serve` outcome."""
    violations = []
    if not sp["deterministic"]:
        violations.append(
            "serve determinism gate: two runs of the seeded trace "
            "produced different reports"
        )
    if sp["serve_failed"] or sp["naive_failed"]:
        violations.append(
            f"serve failure gate: {sp['serve_failed']} serve / "
            f"{sp['naive_failed']} naive failed request(s)"
        )
    if sp["median_speedup"] < SERVE_MIN_SPEEDUP:
        violations.append(
            f"serve latency gate: naive/serve median "
            f"{sp['median_speedup']:.2f}x < {SERVE_MIN_SPEEDUP:.1f}x"
        )
    return violations

"""The always-on analytics service over mutating graphs.

Batch studies answer "how fast is one run"; the serving layer answers
the ROADMAP's production question — many clients, concurrent requests,
graphs that change underneath them.  The package splits along the
request path:

* :mod:`repro.serve.queueing` — admission control and weighted fair
  queueing across clients;
* :mod:`repro.serve.traffic` — the deterministic seeded client-traffic
  generator (requests + mutation events as data);
* :mod:`repro.serve.incremental` — delta-frontier re-execution for
  BFS/SSSP/CC with exact full-recompute fallbacks (the bit-identity
  contract; see docs/serve.md);
* :mod:`repro.serve.backend` — physical execution: snapshots spilled as
  CSR stores, cells dispatched through the shared
  :class:`~repro.runtime.sweep.SweepExecutor`, the repartition-vs-patch
  decision against the partition cache;
* :mod:`repro.serve.service` — the discrete-event service loop tying it
  together: coalescing, the content-hash result cache, simulated-time
  latency accounting, and the deterministic report.

The latency/throughput gate behind ``bench_regression.py --only serve``
and ``BENCH_serve.json`` lives beside that driver
(``benchmarks/serve_gate.py``).
"""

from repro.serve.incremental import IncrementalResult, incremental_run
from repro.serve.queueing import AdmissionController, WFQQueue
from repro.serve.service import AnalyticsService, ServeConfig, ServeReport
from repro.serve.traffic import TrafficConfig, generate_trace

__all__ = [
    "AdmissionController",
    "AnalyticsService",
    "IncrementalResult",
    "ServeConfig",
    "ServeReport",
    "TrafficConfig",
    "WFQQueue",
    "generate_trace",
    "incremental_run",
]

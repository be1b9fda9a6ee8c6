"""The always-on analytics service over mutating graphs.

Batch studies answer "how fast is one run"; the serving layer answers
the ROADMAP's production question — many clients, concurrent requests,
graphs that change underneath them.  The package splits along the
request path:

* :mod:`repro.serve.queueing` — weighted fair queueing across clients;
* :mod:`repro.serve.traffic` — the deterministic seeded client-traffic
  generator (requests + mutation events as data);
* :mod:`repro.serve.incremental` — delta-frontier re-execution for
  BFS/SSSP/CC with exact full-recompute fallbacks (the bit-identity
  contract; see docs/serve.md);
* :mod:`repro.serve.backend` — physical execution: each dispatched run
  on the snapshot the service holds, through the batch studies'
  :func:`~repro.runtime.cells.run_task` in this process, and the
  repartition-vs-patch decision against the partition cache;
* :mod:`repro.serve.service` — the discrete-event service loop tying it
  together: admission, coalescing, the content-hash result cache,
  simulated-time latency accounting, and the deterministic report.

The latency/throughput gate is the ``serve`` group of the ``gates``
golden table (``tests/test_gates.py``): a seeded trace served twice and
once naively, its latencies and counters pinned exactly.
"""

from repro.serve.incremental import IncrementalResult, incremental_run
from repro.serve.queueing import WFQQueue
from repro.serve.service import AnalyticsService, ServeConfig, ServeReport
from repro.serve.traffic import TrafficConfig, generate_trace

__all__ = [
    "AnalyticsService",
    "IncrementalResult",
    "ServeConfig",
    "ServeReport",
    "TrafficConfig",
    "WFQQueue",
    "generate_trace",
    "incremental_run",
]

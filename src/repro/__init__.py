"""repro — reproduction of *A Study of Graph Analytics for Massive Datasets
on Distributed Multi-GPUs* (IPDPS 2020).

The package provides:

* :mod:`repro.graph` — CSR graph substrate.
* :mod:`repro.generators` — deterministic dataset stand-ins (Table I).
* :mod:`repro.partition` — CuSP-style partitioners (OEC/IEC/HVC/CVC/...).
* :mod:`repro.hw` — simulated GPUs, hosts, interconnects, and clusters.
* :mod:`repro.comm` — Gluon-style proxy synchronization substrate.
* :mod:`repro.loadbalance` — TWC/ALB/LB/TB GPU load-balancer cost models.
* :mod:`repro.engine` — BSP and bulk-asynchronous (BASP) execution engines.
* :mod:`repro.apps` — bfs, sssp, cc, pagerank, kcore vertex programs.
* :mod:`repro.frameworks` — D-IrGL, Lux, Gunrock, and Groute facades.
* :mod:`repro.study` — drivers regenerating every paper table and figure.

Quickstart::

    from repro.generators import load_dataset
    from repro.frameworks import DIrGL

    ds = load_dataset("rmat23-s")
    result = DIrGL(policy="cvc").run("bfs", ds, 4)
    print(result.stats.execution_time, result.labels[:10])
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

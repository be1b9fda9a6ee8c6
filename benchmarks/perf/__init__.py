"""Layered host-time benchmark of the repro package (see README.md).

Host time is the performance measured here; simulated seconds, rounds,
messages and label CRCs are *results* and must repeat bit for bit.  The
package drives the product through its public entry points only and
records its spans from its own files (``spans.py`` / ``layers.py``),
never through ``repro.obs``.

Entry points::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src:. python -m benchmarks.perf run --all [--seed N] [--record]
    PYTHONPATH=src:. python -m benchmarks.perf compare A.json B.json
"""

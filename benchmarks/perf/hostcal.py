"""Host calibration: how slow is this machine right now?

The benchmark runs on two virtual cores of a shared host, and the host's
speed is not constant: for minutes at a time everything in the guest —
wall *and* process CPU seconds alike — runs 25-40 % slower, sometimes
twice as slow.  Ten runs of the same code then spread by more than any
bound the benchmark could hold a change to (README, "Noise").  No length
of run averages that out inside the driver's time cap and no statistic
over the passes of a run sees it, because whole runs sit inside one such
episode.

So the harness measures the episode instead.  Around the timed passes it
runs :func:`calibrate`, a fixed reference kernel that has nothing to do
with the repo, and divides every time it reports by

    host_x = median(calibrate() of this run) / CAL_REF_S

the slowdown of the reference kernel against its time on the quiet
machine.  Over 48 minutes of alternating passes and calibrations (two
episodes among them) the reference kernel followed the 20-second medians
of ``sync-heavy`` and ``compute-heavy`` with a correlation of 0.75-0.9,
and dividing by it took their standard deviation from 7 % to 3-5 % and
their range from 37-45 % to 19-24 % (README has the table).

The kernel mixes what the repo's own passes mix — a numpy sort, an
interpreter loop, dict/str churn, and a streaming pass plus a gather over
an array far larger than L2 — because the host slows these by different
amounts: the interpreter part follows ``sync-heavy`` best, the streaming
part ``compute-heavy``, and the sum beats each part on both.  Its arrays
(35 MiB, and a 32 MiB temporary per call) are allocated at the first
call, which the harness makes after it has read ``peak_rss_mb``.
"""

from __future__ import annotations

import functools
import time

import numpy as np

__all__ = ["CAL_REF_S", "calibrate"]

#: Wall seconds of one :func:`calibrate` on the reference machine (this
#: two-core VM) when nothing disturbs it: the lower quartile of 680
#: calibrations.  It only fixes the scale, so that ``host_x`` reads about
#: 1.0 on the quiet machine and calibrated seconds read like seconds;
#: parent and change are always measured with the same constant.
CAL_REF_S = 0.23


@functools.cache
def _arrays():
    """Allocated at the first calibration, not at import: the harness
    reads ``peak_rss_mb`` before that (``harness.run_workload``)."""
    rng = np.random.default_rng(0)
    stream = rng.random(4_000_000)
    arrays = rng.random(200_000), stream, rng.integers(0, stream.size, 400_000)
    _kernel(*arrays)  # fault the temporaries in before anything is timed
    return arrays


def _kernel(to_sort, stream, gather) -> None:
    for _ in range(50):
        np.sort(to_sort)
        s = 0
        for i in range(20_000):
            s += i * i
    for _ in range(30):
        d = {}
        for i in range(8_000):
            d[i] = str(i)
        sorted(d[i] for i in range(8_000))
    for _ in range(8):
        (stream * 1.0001).sum()
        stream[gather].sum()


def calibrate() -> float:
    """Wall seconds of the fixed reference kernel (about a quarter second)."""
    arrays = _arrays()
    t0 = time.perf_counter()
    _kernel(*arrays)
    return time.perf_counter() - t0

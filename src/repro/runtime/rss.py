"""Peak resident-memory sampling for out-of-core workers.

The OOC acceptance gate asserts that a worker streaming a graph much
larger than RAM keeps its *resident* footprint bounded.  Plain ``VmRSS``
is the wrong meter for that: clean file-backed mmap pages (the store
being streamed) count toward ``VmRSS`` even though the kernel reclaims
them freely under pressure — a worker could look "over budget" while
using almost no real memory.  What the budget must bound is **anonymous**
memory (heap + anonymous mappings: numpy temporaries, labels, caches),
reported by ``RssAnon`` in ``/proc/self/status``.

:class:`RssSampler` polls that meter on a daemon thread and tracks the
peak.  Readings are reported both absolute and relative to the baseline
captured at ``start()`` — the Python interpreter plus imported numpy
already cost tens of MB of anonymous memory that says nothing about the
graph pipeline under test.

Platform fallbacks (macOS, exotic /proc): ``VmRSS``, then
``resource.getrusage`` — both documented in the sample as ``source`` so
gates can loosen tolerances off-Linux.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

__all__ = ["RssSampler", "read_rss_anon"]

_STATUS_PATH = "/proc/self/status"


def read_rss_anon() -> tuple[int, str]:
    """Current anonymous-resident bytes and the meter that produced them.

    Prefers ``RssAnon`` (Linux), falls back to ``VmRSS`` (counts clean
    file-backed pages too — an over-estimate), then to
    ``resource.getrusage`` (``ru_maxrss`` is a peak, not a current value,
    and an over-estimate for the same reason).
    """
    try:
        with open(_STATUS_PATH) as f:
            status = f.read()
        for field in ("RssAnon:", "VmRSS:"):
            idx = status.find(field)
            if idx >= 0:
                kb = int(status[idx + len(field):].split(None, 2)[0])
                return kb * 1024, field.rstrip(":")
    except (OSError, ValueError, IndexError):
        pass
    import resource

    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    scale = 1 if ru > 1 << 32 else 1024
    return int(ru) * scale, "ru_maxrss"


@dataclass
class RssSample:
    """One sampler report (all byte values)."""

    baseline: int
    peak: int
    source: str
    samples: int

    @property
    def peak_increment(self) -> int:
        """Peak anonymous bytes above the start-of-sampling baseline."""
        return max(self.peak - self.baseline, 0)


class RssSampler:
    """Samples anonymous RSS on a daemon thread, tracking the peak.

    Usage::

        with RssSampler() as s:
            ...work...
        print(s.result.peak_increment)

    ``sample_now()`` can be called at any time (including from the worker
    thread between cells) to fold an immediate reading into the peak —
    useful because a polling thread can miss short allocation spikes.
    ``stop()`` re-raises what killed the thread: its peak went unmeasured.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._peak = 0
        self._baseline = 0
        self._source = ""
        self._count = 0
        self._failure: BaseException | None = None
        self.result: RssSample | None = None

    # ------------------------------------------------------------------ #
    def sample_now(self) -> int:
        rss, source = read_rss_anon()
        self._source = source
        self._count += 1
        if rss > self._peak:
            self._peak = rss
        return rss

    def _run(self) -> None:
        try:
            while not self._stop.wait(self.interval):
                self.sample_now()
        except BaseException as exc:  # handed to the caller by stop()
            self._failure = exc

    def start(self) -> "RssSampler":
        self._baseline = self.sample_now()
        self._thread = threading.Thread(
            target=self._run, name="rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> RssSample:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._failure is not None:
            raise self._failure
        self.sample_now()
        self.result = RssSample(
            baseline=self._baseline,
            peak=self._peak,
            source=self._source,
            samples=self._count,
        )
        return self.result

    def __enter__(self) -> "RssSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

"""Structured tracing: span and instant events with counters.

A :class:`Tracer` records Chrome-trace-event-compatible events — complete
spans (``ph="X"``), instants (``ph="i"``), and, at export time, counters
(``ph="C"``) — with microsecond timestamps relative to the tracer's
creation.  Design constraints, in order:

* **a null object when disabled** — every method of a disabled tracer
  returns before it does anything (:meth:`begin` returns ``None``, which
  :meth:`end` accepts), so "off" is :data:`NULL_TRACER`, never ``None``,
  and call sites call without testing.  A site tests ``enabled`` only
  where building the call's *arguments* is work worth skipping;
* **thread-safe** — the ambient tracer is process-global, so any thread
  of a process that records reaches it; a lock keeps each append whole.

Events are plain dicts in Chrome trace-event field names (``name``,
``cat``, ``ph``, ``ts``, ``dur``, ``pid``, ``tid``, ``args``), so export
is a ``json.dump`` away (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.obs.counters import CounterRegistry

__all__ = ["Tracer", "NULL_TRACER"]


class Tracer:
    """Collects span/instant events and counters for one run or cell."""

    def __init__(self, enabled: bool = True, pid: Optional[int] = None):
        self.enabled = bool(enabled)
        #: Chrome-trace process id; defaults to the OS pid so traces from
        #: different sweep workers stay distinguishable after merging.
        self.pid = os.getpid() if pid is None else int(pid)
        self.counters = CounterRegistry()
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._thread_names: dict[int, str] = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    def now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    def thread_name(self, tid: int, name: str) -> None:
        """Label a ``tid`` lane (exported as an ``M`` metadata event)."""
        if not self.enabled:
            return
        with self._lock:
            self._thread_names[int(tid)] = name

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def begin(self, name: str, cat: str, tid: int = 0, args: Optional[dict] = None):
        """Open a span; returns an event handle for :meth:`end` (``None``
        when disabled, which :meth:`end` accepts silently)."""
        if not self.enabled:
            return None
        return {
            "name": name,
            "cat": cat,
            "ph": "X",
            "pid": self.pid,
            "tid": int(tid),
            "ts": self.now_us(),
            "args": dict(args) if args else {},
        }

    def end(self, event, **args) -> None:
        """Close a span opened by :meth:`begin`; extra kwargs merge into
        the span's ``args``."""
        if event is None:
            return
        event["dur"] = self.now_us() - event["ts"]
        if args:
            event["args"].update(args)
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------ #
    # instants and counters
    # ------------------------------------------------------------------ #
    def instant(self, name: str, cat: str, tid: int = 0, args: Optional[dict] = None) -> None:
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "pid": self.pid,
            "tid": int(tid),
            "ts": self.now_us(),
            "args": dict(args) if args else {},
        }
        with self._lock:
            self._events.append(event)

    def count(self, name: str, value: float = 1) -> None:
        """Bump a named counter (exported as a ``C`` event)."""
        if not self.enabled:
            return
        self.counters.add(name, value)

    # ------------------------------------------------------------------ #
    def events(self) -> list[dict]:
        """Snapshot of recorded events (chronological per thread)."""
        with self._lock:
            return list(self._events)

    def thread_names(self) -> dict[int, str]:
        with self._lock:
            return dict(self._thread_names)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The off state: what :func:`repro.obs.current_tracer` returns when no
#: tracer is installed.  Safe to call, records nothing.
NULL_TRACER = Tracer(enabled=False)

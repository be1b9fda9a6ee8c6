"""Span recording for the traced pass: timing shims and self-time.

A *boundary* is ``(key, owner, name)``: ``owner`` is a module, a class or
a dict, ``name`` the attribute (or dict key) under which the *caller*
resolves the function.  :func:`patched` swaps every boundary for a shim
that records one span per call — key, parent span, start, end — and puts
the original objects back afterwards, also when the traced code raises.

Self time of a span is its duration minus the part its direct children
cover, so the self times of a span tree add up to the root's duration
and a recursive call is charged once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["SpanRecorder", "patched", "self_times"]


class SpanRecorder:
    """In-memory span store: ``spans[i] = (key, parent_index, t0, t1)``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, fn, key: str, observe=None):
        """A shim around ``fn`` that records one span per call.

        ``observe`` is called with every value ``fn`` returns, after the
        span has ended: counts are read at the boundary the time is.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1)

        if observe is not None:
            timed = shim

            def shim(*args, **kwargs):
                result = timed(*args, **kwargs)
                observe(result)
                return result

        shim.__wrapped__ = fn
        return shim

    def call(self, key: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (the root of a traced pass)."""
        return self.wrap(fn, key)(*args, **kwargs)


def _get_raw(owner, name):
    if isinstance(owner, dict):
        return owner[name]
    # vars(), not getattr: an inherited attribute must be wrapped on the
    # class that defines it, or restoring would leave a copy on this one
    return vars(owner)[name]


def _set_raw(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


@contextmanager
def patched(boundaries, rec: SpanRecorder, observers=None):
    """Install a shim on every ``(key, owner, name)``; restore on exit.

    A boundary listed twice is wrapped once, so a class reached through
    two registry names does not record every call twice.  ``observers``
    maps an attribute name to a callable that is handed every value the
    functions wrapped under that name return.
    """
    observers = observers or {}
    saved = []
    seen = set()
    try:
        for key, owner, name in boundaries:
            site = (id(owner), name)
            if site in seen:
                continue
            seen.add(site)
            raw = _get_raw(owner, name)
            saved.append((owner, name, raw))
            _set_raw(owner, name, rec.wrap(raw, key, observers.get(name)))
        yield rec
    finally:
        for owner, name, raw in reversed(saved):
            _set_raw(owner, name, raw)


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-key self seconds and call counts of a recorded span list."""
    covered = [0.0] * len(spans)
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (key, _, t0, t1), child in zip(spans, covered):
        seconds[key] = seconds.get(key, 0.0) + (t1 - t0) - child
        calls[key] = calls.get(key, 0) + 1
    return seconds, calls

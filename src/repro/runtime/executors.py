"""Shared thread-pool plumbing for the BSP engine's threaded compute phase.

Stdlib-only on purpose: the engine imports this module, so it must not
pull in any repro package that (transitively) imports the engines.

The pool is process-global and lazy: numpy kernels release the GIL, so a
single modest pool serves every engine instance without oversubscribing
the host.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["compute_workers", "thread_map", "shutdown_pool"]

T = TypeVar("T")
R = TypeVar("R")

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def compute_workers() -> int:
    """Worker count for the engine compute pool: one per core, at least
    2 and at most 8."""
    return min(8, max(2, os.cpu_count() or 1))


def _get_pool() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(
                    max_workers=compute_workers(),
                    thread_name_prefix="repro-compute",
                )
                atexit.register(shutdown_pool)
    return _pool


def thread_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every item on the shared pool, results in order.

    The ordered result list is what lets callers merge per-partition
    outputs in fixed partition order, keeping threaded runs bit-identical
    to serial ones.  Exceptions propagate (the first, by item order).
    """
    if len(items) <= 1:
        return [fn(x) for x in items]
    futures = [_get_pool().submit(fn, x) for x in items]
    return [f.result() for f in futures]


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; also runs at interpreter exit)."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
            _pool = None

"""Engine-level runtime invariant checkers.

* :func:`check_round_record` (CHEAP, per round): every simulated phase
  time is finite and non-negative, counters are non-negative, and the
  round's barrier-to-barrier duration is at least its slowest partition's
  compute time — the cost model must never "earn time back".
* :class:`MonotoneWatch` (FULL, per round): snapshots every min/max label
  field and requires each proxy's value to move only in its reduce
  direction (BFS/SSSP/CC/k-core labels only ever decrease, pr-push's
  cumulative budget only grows).  Accumulator fields are exempt — they
  reset by design.
* :func:`check_operator_ids` (CHEAP, per operator output): reported local
  ids lie in ``[0, num_local)`` — ``global_to_local`` answers ``-1`` for a
  foreign vertex and NumPy would wrap it to the partition's *last* proxy.
* :func:`check_field_views` (CHEAP, at run set-up and tear-down): every
  ``state[p][field]`` is still a view of the field's flat array; a rebound
  one is an array no sync step reads or writes.
* :func:`check_final_stats` (CHEAP, at run end): round accounting is
  coherent, in particular BASP's ``local_rounds_min <= local_rounds_max``
  and non-negative aggregate times.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantViolation

__all__ = [
    "MonotoneWatch", "check_field_views", "check_final_stats",
    "check_operator_ids", "check_round_record",
]


def _fail(checker: str, message: str):
    raise InvariantViolation(message, checker=checker)


def check_round_record(rec) -> None:
    """Simulated phase times must be finite and non-negative."""
    for name in ("compute_times", "wait_times", "device_comm_times"):
        arr = getattr(rec, name)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            _fail(
                "round-timing",
                f"round {rec.round_index}: {name} contains a negative or "
                f"non-finite entry ({arr!r})",
            )
    if not np.isfinite(rec.duration) or rec.duration < 0:
        _fail(
            "round-timing",
            f"round {rec.round_index}: duration {rec.duration!r} is "
            "negative or non-finite",
        )
    if len(rec.compute_times) and rec.duration < float(
        rec.compute_times.max()
    ) - 1e-12:
        _fail(
            "round-timing",
            f"round {rec.round_index}: duration {rec.duration} is shorter "
            f"than the slowest partition's compute time "
            f"{float(rec.compute_times.max())}",
        )
    for name in ("active_vertices", "edges_processed", "messages"):
        if getattr(rec, name) < 0:
            _fail(
                "round-accounting",
                f"round {rec.round_index}: {name} is negative",
            )
    if rec.comm_bytes < 0:
        _fail(
            "round-accounting",
            f"round {rec.round_index}: comm_bytes is negative",
        )
    if (
        rec.feature_h2d_bytes < 0
        or not np.isfinite(rec.feature_h2d_bytes)
        or rec.feature_cache_hits < 0
        or rec.feature_cache_misses < 0
    ):
        _fail(
            "round-accounting",
            f"round {rec.round_index}: negative or non-finite feature "
            "traffic counters",
        )


def check_operator_ids(app: str, pid: int, what: str, ids, num_local: int) -> None:
    """Local ids out of an operator must index the partition's proxies."""
    if len(ids) and (ids.min() < 0 or ids.max() >= num_local):
        _fail(
            "operator-ids",
            f"{app} on partition {pid}: {what} ids "
            f"{ids[(ids < 0) | (ids >= num_local)][:4].tolist()} lie outside "
            f"[0, {num_local}) — a negative id wraps to the last proxies",
        )


def check_field_views(state, views) -> None:
    """``state[p][field]`` must share memory with ``views[field].flat``."""
    for field, labels in views.items():
        for p, s in enumerate(state):
            if len(s[field]) != len(labels[p]) or (
                len(labels[p]) and not np.shares_memory(s[field], labels.flat)
            ):
                _fail(
                    "field-views",
                    f"field {field!r} on partition {p}: the state array is "
                    "not a view of the field's flat array (rebound, not "
                    "written in place?) — no sync step would see it",
                )


def check_final_stats(stats) -> None:
    """End-of-run accounting coherence (BSP and BASP)."""
    if stats.rounds < 0 or stats.local_rounds_min < 0:
        _fail("run-accounting", "negative round counts")
    if stats.local_rounds_min > stats.local_rounds_max:
        _fail(
            "run-accounting",
            f"local_rounds_min {stats.local_rounds_min} exceeds "
            f"local_rounds_max {stats.local_rounds_max}",
        )
    for name in ("execution_time", "max_compute", "device_comm"):
        v = getattr(stats, name)
        if not np.isfinite(v) or v < 0:
            _fail(
                "run-accounting",
                f"{name} is negative or non-finite ({v!r})",
            )
    if stats.num_messages < 0 or stats.comm_volume_bytes < 0:
        _fail("run-accounting", "negative communication totals")
    if stats.feature_h2d_bytes < 0 or stats.feature_cache_hits < 0:
        _fail("run-accounting", "negative feature-traffic totals")


class MonotoneWatch:
    """Per-round label-monotonicity snapshots for min/max fields.

    ``observe(views)`` compares each watched field's current per-partition
    labels against the previous observation and raises if any proxy moved
    against its field's reduce direction.  Pass ``pid`` to observe one
    partition (BASP's local rounds); omit it to observe all (BSP's global
    rounds).  FULL-level only: each observation copies the watched labels.
    """

    def __init__(self, fields, num_partitions: int):
        self._direction = {
            f.name: f.reduce_op
            for f in fields
            if f.reduce_op in ("min", "max") and not f.reset_after_reduce
        }
        self._prev: list[dict[str, np.ndarray]] = [
            {} for _ in range(num_partitions)
        ]

    def observe(self, views, pid: int | None = None) -> None:
        pids = range(len(self._prev)) if pid is None else (pid,)
        for field, op in self._direction.items():
            labs = views[field]
            for p in pids:
                cur = labs[p]
                prev = self._prev[p].get(field)
                if prev is not None and len(prev) == len(cur):
                    bad = (cur > prev) if op == "min" else (cur < prev)
                    if np.any(bad):
                        i = int(np.flatnonzero(bad)[0])
                        _fail(
                            "label-monotonicity",
                            f"field {field!r} on partition {p}: proxy {i} "
                            f"moved from {prev[i]!r} to {cur[i]!r} against "
                            f"its {op}-reduce direction",
                        )
                self._prev[p][field] = cur.copy()

"""Mutable graphs: timestamped edge batches over an immutable CSR base.

The study's pipelines are batch — generate, partition, run — but the
serving layer (:mod:`repro.serve`) analyses graphs that *keep changing*
while requests are in flight.  :class:`MutableGraph` wraps a frozen
:class:`~repro.graph.csr.CSRGraph` with an append-only log of
timestamped :class:`EdgeBatch` insert/delete operations and materializes
the current state on demand:

* ``snapshot()`` builds (and caches, per version) a canonical
  :class:`CSRGraph`: the base edge list with every pending batch applied,
  re-canonicalized through :func:`~repro.graph.builder.from_edges`, so
  two mutation histories that reach the same edge multiset produce
  byte-identical CSR arrays — and therefore the same ``content_hash()``.
* ``content_hash()`` delegates to the snapshot.  This is the staleness
  fix: every consumer keyed on content — the partition cache, the serve
  result cache — sees a *new* key the moment a mutation lands, instead
  of silently serving pre-mutation answers off the base graph's hash.

Semantics are deliberately simple and deterministic:

* the vertex set is fixed at the base graph's size — batches move edges,
  not vertices (out-of-range endpoints are rejected);
* a delete removes **every** occurrence of each listed ``(src, dst)``
  pair (the CSR is a multigraph; parallel edges die together) and is a
  no-op for pairs not present;
* an insert appends one edge per listed pair; on weighted graphs a
  weight may be given explicitly, otherwise one is derived
  deterministically from ``(src, dst, timestamp)`` so replays are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MAX_EDGE_WEIGHT
from repro.errors import GraphFormatError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["EdgeBatch", "MutableGraph", "derived_weights", "pair_match_mask"]


def _pairs(src, dst) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(src, dtype=np.int64).ravel()
    d = np.asarray(dst, dtype=np.int64).ravel()
    if s.shape != d.shape:
        raise GraphFormatError("src and dst must have the same length")
    return s, d


def pair_match_mask(src, dst, pair_src, pair_dst, n: int) -> np.ndarray:
    """Mask of the edges ``(src[i], dst[i])`` equal to any listed pair
    (every parallel occurrence): one ``isin`` over ``src * n + dst``."""
    if not len(pair_src) or not len(src):
        return np.zeros(len(src), dtype=bool)
    n = np.int64(n)
    keys = np.asarray(src, dtype=np.int64) * n + dst
    return np.isin(keys, np.unique(np.asarray(pair_src, np.int64) * n + pair_dst))


def derived_weights(src: np.ndarray, dst: np.ndarray, timestamp: int) -> np.ndarray:
    """Deterministic weights in ``[1, MAX_EDGE_WEIGHT]`` for inserted edges.

    A pure function of ``(src, dst, timestamp)`` so a replayed mutation
    log reproduces the exact weighted graph without carrying arrays.
    """
    mix = (
        src.astype(np.uint64) * np.uint64(1_000_003)
        + dst.astype(np.uint64) * np.uint64(7_919)
        + np.uint64(timestamp) * np.uint64(2_654_435_761)
    )
    return (mix % np.uint64(MAX_EDGE_WEIGHT) + np.uint64(1)).astype(np.int64)


@dataclass(frozen=True)
class EdgeBatch:
    """One timestamped group of edge mutations (applied atomically)."""

    timestamp: int
    insert_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: explicit weights for inserted edges; ``None`` derives them
    insert_weights: np.ndarray | None = None
    delete_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    delete_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


class MutableGraph:
    """A :class:`CSRGraph` plus an append-only mutation log.

    Not a ``CSRGraph`` subclass on purpose: the engines and partitioners
    only ever see the frozen ``snapshot()``, so immutability invariants
    (and the buffer-backed content hash) stay intact.
    """

    def __init__(self, base: CSRGraph, name: str = ""):
        self.base = base
        self.name = name or (base.name and f"{base.name}+mut") or "mutable"
        self._log: list[EdgeBatch] = []
        self._clock = 0
        # current edge list (src, dst, weights-or-None); kept incrementally
        # so K small batches do not re-apply the whole history each time
        self._src = base.edge_sources().astype(np.int64)
        self._dst = base.indices.astype(np.int64)
        # keep the base dtype (int or float): weights feed the content
        # hash byte-for-byte, so silent dtype promotion would change keys
        self._w = np.asarray(base.weights) if base.has_weights else None
        self._snapshot: CSRGraph | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_edges(self) -> int:
        return len(self._src)

    @property
    def version(self) -> int:
        """Number of batches applied so far."""
        return len(self._log)

    @property
    def log(self) -> tuple[EdgeBatch, ...]:
        return tuple(self._log)

    # ------------------------------------------------------------------ #
    def apply(self, batch: EdgeBatch) -> "MutableGraph":
        """Apply one batch (deletes first, then inserts) and log it."""
        ins_s, ins_d = _pairs(batch.insert_src, batch.insert_dst)
        del_s, del_d = _pairs(batch.delete_src, batch.delete_dst)
        n = self.num_vertices
        for arr in (ins_s, ins_d, del_s, del_d):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise GraphFormatError(
                    f"mutation endpoint out of range [0, {n})"
                )
        if batch.timestamp < self._clock:
            raise GraphFormatError(
                f"batch timestamp {batch.timestamp} precedes the log clock "
                f"{self._clock} (batches must be applied in time order)"
            )
        # kill every occurrence of each deleted pair
        dead = pair_match_mask(self._src, self._dst, del_s, del_d, n)
        if dead.any():
            keep = ~dead
            self._src = self._src[keep]
            self._dst = self._dst[keep]
            if self._w is not None:
                self._w = self._w[keep]
        if len(ins_s):
            self._src = np.concatenate([self._src, ins_s])
            self._dst = np.concatenate([self._dst, ins_d])
            if self._w is not None:
                if batch.insert_weights is not None:
                    w = np.asarray(batch.insert_weights)
                    if w.shape != ins_s.shape:
                        raise GraphFormatError(
                            "insert_weights must match insert_src length"
                        )
                else:
                    w = derived_weights(ins_s, ins_d, batch.timestamp)
                self._w = np.concatenate(
                    [self._w, w.astype(self._w.dtype, copy=False)]
                )
        self._log.append(batch)
        self._clock = batch.timestamp
        self._snapshot = None  # invalidate: content has (maybe) changed
        return self

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current ``(src, dst)`` edge arrays (int64)."""
        return self._src.copy(), self._dst.copy()

    # ------------------------------------------------------------------ #
    def snapshot(self) -> CSRGraph:
        """The current graph as a frozen, canonical :class:`CSRGraph`.

        Canonicalization (the (src, dst) ordering inside ``from_edges``)
        makes the snapshot — and its content hash — a function of the edge
        multiset alone, independent of mutation order.
        """
        if self._snapshot is None:
            self._snapshot = from_edges(
                self._src, self._dst,
                num_vertices=self.num_vertices, weights=self._w,
                name=f"{self.name}@v{self.version}",
            )
        return self._snapshot

    def content_hash(self) -> str:
        """Hash of the *current* content, pending mutations included.

        Delegating to the snapshot is what keeps the partition cache and
        the serve result cache honest: a mutated graph can never collide
        with its own pre-mutation key.
        """
        return self.snapshot().content_hash()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, v{self.version})"
        )

"""Immutable CSR (compressed sparse row) directed graph.

The CSR layout mirrors what every GPU graph framework in the paper loads
into device memory: an ``indptr`` offsets array of length ``|V| + 1`` and an
``indices`` array of destination vertices of length ``|E|``, plus an optional
parallel array of edge weights (the paper adds randomized weights to every
input for sssp).

Instances are immutable: NumPy arrays are stored with ``writeable=False`` so
that views handed to partitions and engines can never corrupt the shared
topology.  The reverse (transpose) graph needed by pull-style operators is
computed lazily once and cached, with an edge-permutation retained so weights
stay associated with the same logical edge.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.constants import EID_DTYPE, WEIGHT_DTYPE, vid_dtype_for
from repro.errors import GraphFormatError
from repro.graph.order import count_ids, csr_arrays

__all__ = ["CSRGraph"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class CSRGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; out-edges of vertex
        ``v`` are ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        destination vertex of each edge, ``int32``.
    weights:
        optional per-edge weights (parallel to ``indices``).

    Notes
    -----
    Vertices are dense integers ``0 .. num_vertices - 1``.  Self-loops and
    parallel edges are permitted (real web crawls contain both).
    """

    __slots__ = (
        "indptr", "indices", "weights", "_reverse", "_name",
        "_out_degrees", "_in_degrees", "_content_hash",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "",
    ):
        indptr = np.asarray(indptr, dtype=EID_DTYPE)
        # indices stay int32 (VID_DTYPE) unless the vertex count exceeds
        # int32, in which case they promote to int64 instead of wrapping
        indices = np.asarray(indices, dtype=vid_dtype_for(max(len(indptr) - 1, 0)))
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if len(indptr) == 0:
            raise GraphFormatError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if indptr[-1] != len(indices):
            raise GraphFormatError(
                f"indptr[-1]={indptr[-1]} does not match |E|={len(indices)}"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError("edge destination out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
            if weights.shape != indices.shape:
                raise GraphFormatError("weights must parallel indices")
            self.weights: Optional[np.ndarray] = _freeze(weights)
        else:
            self.weights = None
        self.indptr = _freeze(indptr)
        self.indices = _freeze(indices)
        self._reverse: Optional["CSRGraph"] = None
        self._name = name
        self._out_degrees: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None
        self._content_hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # trusted construction (the mmap store's fast path)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_validated_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "",
    ) -> "CSRGraph":
        """Wrap already-validated CSR arrays without the O(|V| + |E|) scans.

        The normal constructor verifies monotonicity and index bounds by
        touching every element — on an mmap-backed billion-edge store that
        pages the whole file in just to *open* it.  This path is for
        callers whose arrays carry their own integrity guarantee (the
        checksummed :mod:`repro.graph.store` container, the partition
        shard cache); only O(1) shape consistency is re-checked.  Arrays
        are stored as given (dtype included) — a memmap stays a memmap.
        """
        if len(indptr) == 0:
            raise GraphFormatError("indptr must have at least one entry")
        if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
            raise GraphFormatError(
                "trusted CSR arrays are inconsistent: indptr endpoints "
                f"({int(indptr[0])}, {int(indptr[-1])}) vs |E|={len(indices)}"
            )
        if weights is not None and weights.shape != indices.shape:
            raise GraphFormatError("weights must parallel indices")
        g = cls.__new__(cls)
        g.indptr = _freeze(indptr)
        g.indices = _freeze(indices)
        g.weights = _freeze(weights) if weights is not None else None
        g._reverse = None
        g._name = name
        g._out_degrees = None
        g._in_degrees = None
        g._content_hash = None
        return g

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable dataset name (empty for anonymous graphs)."""
        return self._name

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64``, cached after first call)."""
        if self._out_degrees is None:
            self._out_degrees = _freeze(np.diff(self.indptr))
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (cached after first call), counted
        blockwise: ``np.bincount`` would widen all of ``indices`` to
        ``intp``, an O(|E|) copy of an mmap-backed out-of-core graph."""
        if self._in_degrees is None:
            self._in_degrees = _freeze(count_ids(self.indices, self.num_vertices))
        return self._in_degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (a read-only view, no copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Expand CSR to a per-edge source array (``int32``, O(|E|))."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=self.indices.dtype),
            self.out_degrees(),
        )

    def topology(self) -> "CSRGraph":
        """This graph without its weights: a no-copy view of ``indptr`` /
        ``indices``.  ``make_undirected(g.topology())`` is the symmetric
        view cc, kcore and mis run on (none reads a weight): same
        ``indptr`` / ``indices`` as ``make_undirected(g)``, built by a plain
        key sort instead of the weighted stable one, holding no weights."""
        return CSRGraph.from_validated_arrays(
            self.indptr, self.indices, name=self._name
        )

    # ------------------------------------------------------------------ #
    # transpose
    # ------------------------------------------------------------------ #
    def reverse(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges), topology only.

        Cached after first computation.  Every reader of a transpose (the
        pull plan, direction-optimizing BFS, Brandes' backward phase, the
        undirected waves, the reference validators) reads in-neighbors, not
        weights, so the transpose carries none; ``reverse()`` of it gives
        back this graph, weights included.  Rows of a CSR are in source
        order, so ordering the flipped edge list by (dst, src) is the stable
        sort by destination.
        """
        if self._reverse is None:
            r_indptr, r_indices, _ = csr_arrays(
                self.indices, self.edge_sources(), self.num_vertices, None
            )
            rev = CSRGraph(r_indptr, r_indices, name=self._name + "^T")
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    # ------------------------------------------------------------------ #
    # content identity (used by the partition cache)
    # ------------------------------------------------------------------ #
    def content_hash(self) -> str:
        """SHA-1 over the CSR arrays (topology + weights), cached.

        Two graphs with equal arrays hash equally regardless of object
        identity or name, so partitionings computed in another process (or
        a previous run) can be reused safely from a disk cache.
        """
        if self._content_hash is None:
            h = hashlib.sha1()
            h.update(
                f"csr|v={self.num_vertices}|e={self.num_edges}"
                f"|w={int(self.has_weights)}".encode()
            )
            for arr in (self.indptr, self.indices, self.weights):
                if arr is None:
                    continue
                if arr.flags.c_contiguous:
                    # buffer protocol: no `tobytes()` copy, so hashing a
                    # file-backed graph stays O(1) in anonymous memory
                    h.update(arr.data)
                else:  # pragma: no cover - arrays are frozen contiguous
                    h.update(arr.tobytes())
            self._content_hash = h.hexdigest()
        return self._content_hash

    # ------------------------------------------------------------------ #
    # size accounting (used by the memory model)
    # ------------------------------------------------------------------ #
    def nbytes(self, include_weights: bool = True) -> int:
        """Bytes of the CSR arrays as laid out in (simulated) device memory."""
        total = self.indptr.nbytes + self.indices.nbytes
        if include_weights and self.weights is not None:
            total += self.weights.nbytes
        return total

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = "weighted" if self.has_weights else "unweighted"
        label = self._name or "CSRGraph"
        return f"<{label}: |V|={self.num_vertices:,} |E|={self.num_edges:,} {w}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        ):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None and not np.array_equal(
            self.weights, other.weights
        ):
            return False
        return True

    def __hash__(self):  # pragma: no cover - identity hashing for caches
        return id(self)

"""Versioned, checksummed on-disk CSR container with an mmap-backed view.

The paper's headline inputs (clueweb12, wdc12) reach 64B edges — far past
what a worker process can hold as in-RAM numpy arrays.  This module gives
the pipeline an out-of-core data path:

* :func:`write_csr_store` serializes a :class:`~repro.graph.csr.CSRGraph`
  into a single binary container with a versioned header and per-section
  CRC32 checksums.
* :func:`open_csr` re-opens a container either fully in RAM
  (``mode="ram"``, checksum-verified by default) or as ``np.memmap`` views
  (``mode="mmap"``) served behind the unmodified ``CSRGraph`` API, so
  apps, partitioners, and both engines stream pages on demand instead of
  paying O(|E|) resident memory.
* :func:`from_edge_chunks` builds a container directly from a stream of
  bounded ``(src, dst)`` blocks with an external counting sort whose
  blocks and row windows :func:`repro.graph.order.order_edges` puts in
  order — peak RAM is O(chunk + window + |V|), never O(|E|) — and the
  result is bit-identical to :func:`repro.graph.builder.from_edges` over
  the concatenated stream, independent of the chunking.

The layout — a 4096-byte header block (magic, version, CRC'd JSON header),
then 64-byte-aligned sections ``indptr`` / ``indices`` / ``weights`` with a
CRC32 each, written to a temporary file and renamed into place — is
:mod:`repro.graph.container`'s; the JSON header adds ``num_vertices`` /
``num_edges`` / ``has_weights`` / ``name``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.constants import EID_DTYPE, MAX_EDGE_WEIGHT, WEIGHT_DTYPE, vid_dtype_for
from repro.errors import GraphFormatError
from repro.graph.container import (
    ContainerFormat,
    ContainerWriter,
    read_header,
    read_sections,
    verify_sections,
)
from repro.graph.csr import CSRGraph
from repro.graph.order import order_edges
from repro.utils import rng_from_seed

__all__ = [
    "STORE_MAGIC",
    "STORE_VERSION",
    "write_csr_store",
    "open_csr",
    "store_info",
    "verify_store",
    "from_edge_chunks",
]

STORE_MAGIC = b"repro-csr-store\n"
STORE_VERSION = 1
_FORMAT = ContainerFormat(STORE_MAGIC, STORE_VERSION, "store")


def _finalize_store(writer: ContainerWriter, num_vertices, num_edges, name) -> None:
    """Write the store's header over the finished sections and rename the
    container into place (with an ``fsync``: a store is kept, not scratch)."""
    meta = {
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "has_weights": "weights" in writer.sections,
        "name": name,
    }
    writer.commit(meta, sync=True)


def write_csr_store(graph: CSRGraph, path: str) -> dict:
    """Serialize ``graph`` into a checksummed store container at ``path``.

    Writes atomically (temp file + rename).  Returns the header dict.
    """
    with ContainerWriter(path, _FORMAT) as writer:
        writer.stream("indptr", [graph.indptr])
        writer.stream("indices", [graph.indices])
        if graph.has_weights:
            writer.stream("weights", [graph.weights])
        _finalize_store(writer, graph.num_vertices, graph.num_edges, graph.name)
    return store_info(path)


def store_info(path: str) -> dict:
    """Parse and validate the store header; raises on corrupt/truncated files
    (magic, version, header CRC, file size against ``total_bytes``)."""
    return read_header(path, _FORMAT)


def verify_store(path: str) -> dict:
    """Full verification: header + CRC32 of every data section (O(file))."""
    header = store_info(path)
    verify_sections(path, header)
    return header


def open_csr(path: str, mode: str = "mmap", verify: Optional[bool] = None) -> CSRGraph:
    """Open a store container as a :class:`CSRGraph`.

    Parameters
    ----------
    mode:
        ``"mmap"`` serves ``indptr``/``indices``/``weights`` as read-only
        ``np.memmap`` views — opening is O(|V|) work and O(1) resident
        memory; pages fault in as the algorithms touch them.  ``"ram"``
        reads everything into ordinary arrays.
    verify:
        ``None`` picks the mode default: RAM loads run the full per-section
        CRC check (the data is being read anyway), mmap opens validate the
        header, file size, and indptr monotonicity only (an O(|E|) CRC
        sweep would page the entire file in, defeating the point).  Pass
        ``True``/``False`` to override either way.
    """
    if mode not in ("mmap", "ram"):
        raise ValueError(f"mode must be 'mmap' or 'ram', got {mode!r}")
    if verify is None:
        verify = mode == "ram"
    header = verify_store(path) if verify and mode == "mmap" else store_info(path)
    secs = read_sections(path, header, mode, verify)
    indptr, indices, weights = secs["indptr"], secs["indices"], secs.get("weights")
    if len(indptr) != header["num_vertices"] + 1:
        raise GraphFormatError(f"{path!r}: indptr length disagrees with header")
    if len(indices) != header["num_edges"]:
        raise GraphFormatError(f"{path!r}: indices length disagrees with header")
    # O(|V|) structural check — cheap even on mmap (indptr is the small
    # section) and catches in-place tampering the header CRC cannot.
    if len(indptr) == 0 or int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
        raise GraphFormatError(f"{path!r}: indptr endpoints are inconsistent")
    if np.any(np.diff(indptr) < 0):
        raise GraphFormatError(f"{path!r}: indptr is not non-decreasing")
    return CSRGraph.from_validated_arrays(
        indptr, indices, weights, name=header.get("name", "")
    )


# --------------------------------------------------------------------- #
# external-memory CSR construction
# --------------------------------------------------------------------- #

#: edges per spilled block in the scatter pass, per row window in the sort
#: pass and per draw of ``weight_seed``'s weights: the O(window) term of
#: :func:`from_edge_chunks`' peak
SORT_WINDOW_EDGES = 1 << 22


def from_edge_chunks(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    path: str,
    num_vertices: int,
    name: str = "",
    weight_seed: Optional[int] = None,
) -> dict:
    """Build a store container from a stream of bounded ``(src, dst)`` chunks.

    The concatenation of the chunks is the edge list.  Construction is an
    external counting sort in three passes, the order of each block and
    window decided by :func:`repro.graph.order.order_edges`:

    1. spill the edges, validated and narrowed to the container's vertex-id
       dtype, to append-only scratch files next to ``path`` while counting
       out-degrees (O(|V|) RAM);
    2. re-read the spill in blocks of :data:`SORT_WINDOW_EDGES` edges, put
       each block in edge order and scatter it to its rows through a
       per-vertex write cursor, so every edge lands in its source's row;
    3. put each window of rows holding at most :data:`SORT_WINDOW_EDGES`
       edges (a row larger than that alone) in edge order in place.

    The result is bit-identical to ``from_edges(src_all, dst_all)`` however
    the stream was chunked; peak RAM is O(chunk + window + |V|), never
    O(|E|).  ``weight_seed`` then draws randomized integer edge weights in
    CSR order, the stream :func:`repro.graph.transform.add_random_weights`
    draws in RAM, without an O(|E|) array.  Returns the store header dict.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix=os.path.basename(path) + ".spill.", dir=d)
    spill = [os.path.join(spill_dir, f) for f in ("src.vid", "dst.vid")]
    vid = vid_dtype_for(num_vertices)
    try:
        # ---- pass 1: spill edges, count degrees -------------------- #
        counts = np.zeros(num_vertices, dtype=EID_DTYPE)
        with open(spill[0], "wb") as src_f, open(spill[1], "wb") as dst_f:
            for src, dst in chunks:
                src = np.ascontiguousarray(src, dtype=np.int64)
                dst = np.ascontiguousarray(dst, dtype=np.int64)
                if src.shape != dst.shape or src.ndim != 1:
                    raise GraphFormatError("chunk src and dst must be equal-length 1-D")
                if len(src) == 0:
                    continue
                if min(src.min(), dst.min()) < 0:
                    raise GraphFormatError("negative vertex id in edge chunk")
                hi = int(max(src.max(), dst.max()))
                if hi >= num_vertices:
                    raise GraphFormatError(
                        f"vertex id {hi} exceeds num_vertices={num_vertices}"
                    )
                counts += np.bincount(src, minlength=num_vertices)
                src_f.write(src.astype(vid).tobytes())
                dst_f.write(dst.astype(vid).tobytes())
        indptr = np.zeros(num_vertices + 1, dtype=EID_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        num_edges = int(indptr[-1])

        with ContainerWriter(path, _FORMAT) as writer:
            writer.stream("indptr", [indptr])
            mm_idx = writer.reserve("indices", vid, num_edges)
            mm_w = None if weight_seed is None else writer.reserve(
                "weights", WEIGHT_DTYPE, num_edges
            )
            if num_edges:
                # ---- pass 2: ordered blocks, run-length cursor scatter - #
                cursor = indptr[:-1].copy()
                with open(spill[0], "rb") as sf, open(spill[1], "rb") as df:
                    for done in range(0, num_edges, SORT_WINDOW_EDGES):
                        n = min(SORT_WINDOW_EDGES, num_edges - done)
                        bsrc, bdst, _ = order_edges(
                            np.fromfile(sf, dtype=vid, count=n),
                            np.fromfile(df, dtype=vid, count=n),
                            num_vertices,
                        )
                        head = np.flatnonzero(np.diff(bsrc, prepend=-1))
                        cnt = np.diff(head, append=n)
                        runs = bsrc[head]
                        pos = np.repeat(cursor[runs] - head, cnt) + np.arange(n)
                        mm_idx[pos] = bdst
                        cursor[runs] += cnt

                # ---- pass 3: rows in edge order, a window at a time ---- #
                v0 = 0
                while v0 < num_vertices:
                    # widest v1 whose window holds <= SORT_WINDOW_EDGES edges
                    v1 = int(np.searchsorted(
                        indptr, indptr[v0] + SORT_WINDOW_EDGES, side="right"
                    )) - 1
                    v1 = min(max(v1, v0 + 1), num_vertices)
                    e0, e1 = int(indptr[v0]), int(indptr[v1])
                    rows = np.repeat(np.arange(v0, v1), np.diff(indptr[v0 : v1 + 1]))
                    mm_idx[e0:e1] = order_edges(rows, mm_idx[e0:e1], num_vertices)[1]
                    v0 = v1
                mm_idx.flush()

                if mm_w is not None:
                    # randomized weights drawn sequentially in CSR order —
                    # the same stream add_random_weights produces in RAM
                    rng = rng_from_seed(weight_seed)
                    for done in range(0, num_edges, SORT_WINDOW_EDGES):
                        n = min(SORT_WINDOW_EDGES, num_edges - done)
                        mm_w[done : done + n] = rng.integers(
                            1, MAX_EDGE_WEIGHT + 1, size=n, dtype=np.int64
                        ).astype(WEIGHT_DTYPE)
                    mm_w.flush()
            del mm_idx, mm_w

            _finalize_store(writer, num_vertices, num_edges, name)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return store_info(path)

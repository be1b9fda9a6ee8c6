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
  bounded edge blocks with an external two-pass counting sort — peak RAM
  is O(chunk + |V|), never O(|E|) — and the result is bit-identical to
  :func:`repro.graph.builder.from_edges` over the concatenated stream,
  independent of the chunking.

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
from typing import Iterable, Optional, Sequence, Tuple

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

def _unpack_chunk(chunk) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    if len(chunk) == 2:
        src, dst = chunk
        w = None
    elif len(chunk) == 3:
        src, dst, w = chunk
    else:
        raise GraphFormatError(
            "edge chunks must be (src, dst) or (src, dst, weights) tuples"
        )
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("chunk src and dst must be equal-length 1-D")
    if w is not None:
        w = np.ascontiguousarray(w, dtype=WEIGHT_DTYPE)
        if w.shape != src.shape:
            raise GraphFormatError("chunk weights must parallel src/dst")
    return src, dst, w


def from_edge_chunks(
    chunks: Iterable[Sequence[np.ndarray]],
    path: str,
    num_vertices: Optional[int] = None,
    name: str = "",
    sort_window_edges: int = 1 << 22,
    weight_seed: Optional[int] = None,
) -> dict:
    """Build a store container from a stream of bounded edge chunks.

    ``chunks`` yields ``(src, dst)`` or ``(src, dst, weights)`` arrays; the
    concatenation of all chunks is the edge list.  Construction is an
    external two-pass counting sort:

    1. spill the raw edges to append-only scratch files next to ``path``
       while accumulating per-vertex out-degree counts (O(|V|) RAM);
    2. re-read the spill in bounded blocks and scatter each edge to its
       final CSR slot via a per-vertex write cursor (stable within a
       block after a stable per-block sort, and across blocks because the
       cursor only moves forward) — so edges land grouped by source in
       original stream order;
    3. sort each row by destination over bounded windows of at most
       ``sort_window_edges`` edges (a single row larger than the window
       is sorted alone).

    The result is bit-identical to ``from_edges(src_all, dst_all)`` — the
    same stable ``(src, dst)`` ordering — regardless of how the stream was
    chunked.  Peak RAM is O(chunk + sort_window + |V|), never O(|E|).

    ``weight_seed`` draws randomized integer edge weights in CSR order
    after the sort, reproducing
    :func:`repro.graph.transform.add_random_weights` exactly (same seed →
    same weights as the in-RAM dataset path) without an O(|E|) array;
    mutually exclusive with chunks that carry their own weights.

    Returns the store header dict.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    spill_dir = tempfile.mkdtemp(
        prefix=os.path.basename(path) + ".spill.", dir=d
    )
    try:
        # ---- pass 1: spill edges, count degrees -------------------- #
        counts = np.zeros(
            num_vertices if num_vertices is not None else 1024, dtype=EID_DTYPE
        )
        max_id = -1
        num_edges = 0
        has_weights: Optional[bool] = None
        src_f = open(os.path.join(spill_dir, "src.i64"), "wb")
        dst_f = open(os.path.join(spill_dir, "dst.i64"), "wb")
        w_f = open(os.path.join(spill_dir, "w.u32"), "wb")
        try:
            for chunk in chunks:
                src, dst, w = _unpack_chunk(chunk)
                if has_weights is None:
                    has_weights = w is not None
                elif has_weights != (w is not None):
                    raise GraphFormatError(
                        "all chunks must agree on whether edges are weighted"
                    )
                if len(src) == 0:
                    continue
                lo = min(int(src.min()), int(dst.min()))
                hi = max(int(src.max()), int(dst.max()))
                if lo < 0:
                    raise GraphFormatError("negative vertex id in edge chunk")
                if num_vertices is not None and hi >= num_vertices:
                    raise GraphFormatError(
                        f"vertex id {hi} exceeds num_vertices={num_vertices}"
                    )
                max_id = max(max_id, hi)
                bc = np.bincount(src)
                if len(bc) > len(counts):
                    grown = np.zeros(
                        max(len(bc), 2 * len(counts)), dtype=EID_DTYPE
                    )
                    grown[: len(counts)] = counts
                    counts = grown
                counts[: len(bc)] += bc
                num_edges += len(src)
                src_f.write(src.tobytes())
                dst_f.write(dst.tobytes())
                if w is not None:
                    w_f.write(w.tobytes())
        finally:
            src_f.close()
            dst_f.close()
            w_f.close()
        if has_weights is None:
            has_weights = False
        if weight_seed is not None and has_weights:
            raise GraphFormatError(
                "weight_seed and per-chunk weights are mutually exclusive"
            )
        store_weights = has_weights or weight_seed is not None
        if num_vertices is None:
            num_vertices = max_id + 1

        indptr = np.zeros(num_vertices + 1, dtype=EID_DTYPE)
        np.cumsum(counts[:num_vertices], out=indptr[1:])

        idx_dtype = vid_dtype_for(num_vertices)
        with ContainerWriter(path, _FORMAT) as writer:
            writer.stream("indptr", [indptr])
            mm_idx = writer.reserve("indices", idx_dtype, num_edges)
            mm_w = (
                writer.reserve("weights", WEIGHT_DTYPE, num_edges)
                if store_weights else None
            )

            # ---- pass 2: cursor scatter into the memmapped sections ---- #
            if num_edges:
                cursor = indptr[:-1].copy()
                block = max(int(sort_window_edges), 1)
                with open(os.path.join(spill_dir, "src.i64"), "rb") as sf, \
                        open(os.path.join(spill_dir, "dst.i64"), "rb") as df, \
                        open(os.path.join(spill_dir, "w.u32"), "rb") as wf:
                    done = 0
                    while done < num_edges:
                        n = min(block, num_edges - done)
                        bsrc = np.fromfile(sf, dtype=np.int64, count=n)
                        bdst = np.fromfile(df, dtype=np.int64, count=n)
                        order = np.argsort(bsrc, kind="stable")
                        bsrc = bsrc[order]
                        uniq, start, cnt = np.unique(
                            bsrc, return_index=True, return_counts=True
                        )
                        pos = cursor[bsrc] + (
                            np.arange(n, dtype=EID_DTYPE) - np.repeat(start, cnt)
                        )
                        mm_idx[pos] = bdst[order].astype(idx_dtype)
                        if has_weights:
                            bw = np.fromfile(wf, dtype=WEIGHT_DTYPE, count=n)
                            mm_w[pos] = bw[order]
                        cursor[uniq] += cnt
                        done += n

                # ---- pass 3: per-row destination sort, bounded windows - #
                v0 = 0
                while v0 < num_vertices:
                    # widest v1 whose window holds <= sort_window_edges edges
                    v1 = int(
                        np.searchsorted(
                            indptr, indptr[v0] + sort_window_edges, side="right"
                        )
                    ) - 1
                    v1 = min(max(v1, v0 + 1), num_vertices)
                    e0, e1 = int(indptr[v0]), int(indptr[v1])
                    if e1 > e0:
                        seg = np.array(mm_idx[e0:e1])
                        rows = np.repeat(
                            np.arange(v1 - v0, dtype=EID_DTYPE),
                            np.diff(indptr[v0 : v1 + 1]),
                        )
                        order = np.lexsort((seg, rows))
                        mm_idx[e0:e1] = seg[order]
                        if has_weights:
                            wseg = np.array(mm_w[e0:e1])
                            mm_w[e0:e1] = wseg[order]
                    v0 = v1
                mm_idx.flush()

                if weight_seed is not None:
                    # randomized weights drawn sequentially in CSR order —
                    # the same stream add_random_weights produces in RAM
                    rng = rng_from_seed(weight_seed)
                    for done in range(0, num_edges, block):
                        n = min(block, num_edges - done)
                        mm_w[done : done + n] = rng.integers(
                            1, MAX_EDGE_WEIGHT + 1, size=n, dtype=np.int64
                        ).astype(WEIGHT_DTYPE)
                if mm_w is not None:
                    mm_w.flush()
            del mm_idx, mm_w

            _finalize_store(writer, num_vertices, num_edges, name)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return store_info(path)

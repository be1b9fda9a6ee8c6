"""Graph serialization as text.

The **edge list** format — whitespace-separated ``src dst [weight]`` text
lines — is the lingua franca of SNAP / WebGraph dumps.  Reading is
chunked: the file is parsed in bounded blocks of lines, never slurped
whole, and vertex ids that exceed ``int32`` promote the CSR index dtype
instead of wrapping.

The binary format is the store container (mmap-able, checksummed,
chunk-built): see :mod:`repro.graph.store`.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "save_edgelist",
    "load_edgelist",
    "iter_edgelist_chunks",
]

#: Lines parsed per block when streaming an edge list.
_EDGELIST_CHUNK_LINES = 1 << 19


def save_edgelist(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``src dst [weight]`` lines (no comments)."""
    src = graph.edge_sources()
    if graph.has_weights:
        data = np.column_stack([src, graph.indices, graph.weights])
        np.savetxt(path, data, fmt="%d")
    else:
        data = np.column_stack([src, graph.indices])
        np.savetxt(path, data, fmt="%d")


def _parse_lines(lines: list, path) -> np.ndarray:
    try:
        return np.loadtxt(lines, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed edge-list line: {exc}") from exc


def iter_edgelist_chunks(
    path: str | os.PathLike,
    weighted: Optional[bool] = None,
    chunk_lines: int = _EDGELIST_CHUNK_LINES,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Stream an edge list as bounded ``(src, dst[, weights])`` blocks.

    Parses at most ``chunk_lines`` lines at a time, so peak memory is
    O(chunk) regardless of file size — the chunks feed either
    :func:`load_edgelist` (in-RAM build) or
    :func:`repro.graph.store.from_edge_chunks` (out-of-core build)
    unchanged.  ``weighted=None`` auto-detects a third column from the
    first non-comment line; the column count must then hold for the whole
    file.
    """
    buf: list = []
    cols: Optional[int] = None
    with open(path, "r") as f:
        for line in f:
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            buf.append(s)
            if len(buf) >= chunk_lines:
                data = _parse_lines(buf, path)
                buf = []
                cols, weighted = _check_cols(data, cols, weighted, path)
                yield _split_cols(data, weighted)
        if buf:
            data = _parse_lines(buf, path)
            cols, weighted = _check_cols(data, cols, weighted, path)
            yield _split_cols(data, weighted)


def _check_cols(data, cols, weighted, path):
    if cols is None:
        cols = data.shape[1]
        if cols not in (2, 3):
            raise GraphFormatError(f"expected 2 or 3 columns, found {cols}")
        if weighted is None:
            weighted = cols == 3
        if weighted and cols < 3:
            raise GraphFormatError(
                "weighted load requested but file has 2 columns"
            )
    elif data.shape[1] != cols:
        raise GraphFormatError(
            f"{path}: inconsistent column count "
            f"({data.shape[1]} after {cols})"
        )
    return cols, weighted


def _split_cols(data, weighted):
    if weighted:
        return data[:, 0], data[:, 1], data[:, 2]
    return data[:, 0], data[:, 1]


def load_edgelist(
    path: str | os.PathLike,
    num_vertices: int | None = None,
    weighted: bool | None = None,
    name: str = "",
) -> CSRGraph:
    """Read an edge list; ``#``-prefixed comment lines are skipped.

    ``weighted=None`` auto-detects a third column.  The file is parsed in
    bounded chunks (see :func:`iter_edgelist_chunks`); vertex ids beyond
    ``int32`` promote the index dtype rather than overflowing.
    """
    srcs, dsts, ws = [], [], []
    for chunk in iter_edgelist_chunks(path, weighted=weighted):
        srcs.append(chunk[0])
        dsts.append(chunk[1])
        if len(chunk) == 3:
            ws.append(chunk[2])
    if not srcs:
        if num_vertices is None:
            raise GraphFormatError("empty edge list with unknown vertex count")
        return from_edges(
            np.empty(0, np.int64), np.empty(0, np.int64),
            num_vertices=num_vertices, name=name,
        )
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    w = np.concatenate(ws) if ws else None
    return from_edges(src, dst, num_vertices=num_vertices, weights=w, name=name)

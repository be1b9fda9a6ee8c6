"""The edge models, written once, as bounded edge-block emitters.

Each emitter yields ``(src, dst)`` blocks of at most ``chunk_edges``
edges.  Materializing a whole edge list at once — an ``(E, scale)``
uniform matrix for R-MAT, full endpoint arrays for the Chung-Lu and
Watts-Strogatz models — caps a graph far below the memory-pressure regime
the paper studies; streamed into :func:`repro.graph.store.from_edge_chunks`
the blocks assemble graphs 10–50× larger than the in-RAM stand-ins with
peak RAM O(chunk + |V|).  The in-RAM generators (:func:`~repro.generators.
rmat.rmat`, :func:`~repro.generators.powerlaw.powerlaw_social`,
:func:`~repro.generators.smallworld.small_world`) are the same emitters
asked for everything in one block (:func:`edge_list`).

Determinism:

* :func:`rmat_chunks` consumes the PCG64 stream in row-major order of the
  ``(E, scale)`` uniform matrix, so for equal ``(scale, edge_factor, a, b,
  c, seed)`` the concatenated chunk stream is **bit-identical** for any
  ``chunk_edges``.
* :func:`powerlaw_chunks` and :func:`smallworld_chunks` draw per block, so
  their streams are deterministic in ``(seed, chunk_edges)``; every
  ``chunk_edges`` that holds the whole graph gives the same single block.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.generators.sampling import WeightedSampler
from repro.graph.store import from_edge_chunks
from repro.utils import rng_from_seed

__all__ = [
    "rmat_chunks",
    "powerlaw_chunks",
    "smallworld_chunks",
    "edge_list",
    "generate_chunks",
    "build_store",
]

#: Default edges per emitted block (~16 MB of int64 endpoint pairs).
DEFAULT_CHUNK_EDGES = 1 << 20

EdgeChunk = Tuple[np.ndarray, np.ndarray]


def rmat_chunks(
    scale: int,
    edge_factor: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | None = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[EdgeChunk]:
    """R-MAT edge stream in bounded blocks (Graph500 parameters by default).

    Each edge picks one quadrant of the adjacency matrix per recursion
    level with probabilities ``(a, b, c, d = 1 - a - b - c)``; all
    ``scale`` choices of a block are drawn at once (a ``(k, scale)``
    uniform matrix), so peak memory is O(chunk_edges * scale).
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative")
    n = 1 << scale
    m = int(round(edge_factor * n))
    rng = rng_from_seed(seed)
    done = 0
    while done < m:
        k = min(chunk_edges, m - done)
        src = np.zeros(k, dtype=np.int64)
        dst = np.zeros(k, dtype=np.int64)
        # rows of the (m, scale) uniform matrix are consumed in C order,
        # so per-block (k, scale) draws replay the one-block stream exactly
        u = rng.random((k, scale))
        # Quadrant thresholds: [0,a)->(0,0)  [a,a+b)->(0,1)  [a+b,a+b+c)->(1,0)
        # else (1,1).  Row bit set for quadrants c,d; column bit for b,d.
        row_bit = u >= a + b
        col_bit = (u >= a) & (u < a + b) | (u >= a + b + c)
        for level in range(scale):
            bit = 1 << (scale - 1 - level)
            src |= row_bit[:, level] * bit
            dst |= col_bit[:, level] * bit
        yield src, dst
        done += k


def powerlaw_chunks(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.2,
    num_hubs: int = 0,
    hub_degree_fraction: float = 0.05,
    in_out_symmetry: float = 1.0,
    seed: int | None = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[EdgeChunk]:
    """Chung-Lu power-law edge stream in bounded blocks.

    The O(|V|) expected-degree vectors (Zipf ranks, shuffled, with hub
    injection on the out side) are set up once; endpoints are then sampled
    block by block, independently per side with probability proportional
    to expected degree.  Self-loops are dropped (social nets have none),
    so blocks may come up slightly short of ``chunk_edges``.
    """
    if num_vertices <= 1:
        raise ValueError("need at least 2 vertices")
    rng = rng_from_seed(seed)
    m = int(round(num_vertices * avg_degree))

    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(w)

    w_out = w.copy()
    if num_hubs > 0:
        hubs = rng.choice(num_vertices, size=num_hubs, replace=False)
        total = w_out.sum()
        w_out[hubs] += (
            total * hub_degree_fraction
            / max(1.0 - hub_degree_fraction, 1e-9) / num_hubs
        )
    out_side = WeightedSampler(w_out / w_out.sum())

    w_in = w ** in_out_symmetry
    in_side = WeightedSampler(w_in / w_in.sum())

    done = 0
    while done < m:
        k = min(chunk_edges, m - done)
        src = out_side.draw(rng, k)
        dst = in_side.draw(rng, k)
        keep = src != dst
        yield src[keep], dst[keep]
        done += k


def smallworld_chunks(
    num_vertices: int,
    k: int = 4,
    rewire_p: float = 0.1,
    seed: int | None = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[EdgeChunk]:
    """Watts-Strogatz ring edge stream, emitted per contiguous vertex range."""
    if k < 1 or k >= num_vertices:
        raise ValueError("k must be in [1, num_vertices)")
    rng = rng_from_seed(seed)
    verts_per_block = max(chunk_edges // k, 1)
    v0 = 0
    while v0 < num_vertices:
        v1 = min(v0 + verts_per_block, num_vertices)
        src = np.repeat(np.arange(v0, v1, dtype=np.int64), k)
        hop = np.tile(np.arange(1, k + 1, dtype=np.int64), v1 - v0)
        dst = (src + hop) % num_vertices
        rewire = rng.random(len(src)) < rewire_p
        dst[rewire] = rng.integers(0, num_vertices, size=int(rewire.sum()))
        keep = src != dst
        yield src[keep], dst[keep]
        v0 = v1


def edge_list(emit, *args, **params) -> EdgeChunk:
    """The whole edge list of ``emit(*args, **params)`` as its one block —
    how the in-RAM generators are built (empty when the model has no
    edges at all)."""
    empty = np.empty(0, dtype=np.int64)
    return next(emit(*args, chunk_edges=sys.maxsize, **params), (empty, empty))


_KINDS = {
    "rmat": rmat_chunks,
    "powerlaw": powerlaw_chunks,
    "smallworld": smallworld_chunks,
}


def generate_chunks(
    kind: str,
    scale: int,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    seed: int | None = 0,
    **params,
) -> Iterator[EdgeChunk]:
    """Dispatch to a chunked emitter by kind.

    ``scale`` is log2 of the vertex count for every kind (the non-R-MAT
    emitters receive ``num_vertices = 2**scale``); kind-specific knobs
    pass through ``params``.
    """
    try:
        emit = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown generator kind {kind!r}; known: {sorted(_KINDS)}"
        ) from None
    if kind == "rmat":
        return emit(scale, seed=seed, chunk_edges=chunk_edges, **params)
    return emit(1 << scale, seed=seed, chunk_edges=chunk_edges, **params)


def build_store(
    kind: str,
    scale: int,
    path: str,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    seed: int | None = 0,
    weight_seed: Optional[int] = 0,
    name: str = "",
    **params,
) -> dict:
    """Generate a graph chunk-by-chunk straight into a store container.

    The default ``weight_seed=0`` attaches the same randomized edge weights
    the in-RAM dataset path does; pass ``None`` for an unweighted store.
    Returns the store header dict.
    """
    return from_edge_chunks(
        generate_chunks(kind, scale, chunk_edges=chunk_edges, seed=seed, **params),
        path,
        num_vertices=1 << scale,
        name=name or f"{kind}{scale}",
        weight_seed=weight_seed,
    )

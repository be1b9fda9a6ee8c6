"""Power-law "social network" generator (Chung-Lu style with hub injection).

Social graphs in the study (orkut, twitter50, friendster) are power-law with
low diameter; twitter50 additionally has an extreme out-degree hub (the paper
sources bfs/sssp at the max out-degree vertex).  The generator:

1. draws per-vertex expected degrees from a discrete power law (Zipf);
2. optionally injects ``num_hubs`` vertices whose expected degree is
   ``hub_degree_fraction`` of all edges — the celebrity accounts;
3. samples edge endpoints independently with probability proportional to
   expected degree (Chung-Lu), vectorized with one ``rng.choice`` per side.

The result reproduces the shape statistics that matter to the study: heavy
skew, small diameter, and controllable max in/out-degree asymmetry.  The
model itself is :func:`repro.generators.chunked.powerlaw_chunks`; this is
that emitter asked for every edge in one block.
"""

from __future__ import annotations

from repro.generators.chunked import edge_list, powerlaw_chunks
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["powerlaw_social"]


def powerlaw_social(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.2,
    num_hubs: int = 0,
    hub_degree_fraction: float = 0.05,
    in_out_symmetry: float = 1.0,
    seed: int | None = 0,
    name: str = "",
) -> CSRGraph:
    """Generate a directed power-law social network.

    Parameters
    ----------
    num_vertices, avg_degree:
        size knobs; the edge count is ``num_vertices * avg_degree``.
    exponent:
        Zipf exponent of the degree distribution (2–2.5 fits social nets).
    num_hubs:
        number of celebrity vertices; each receives an equal share of
        ``hub_degree_fraction`` of total edge endpoints **on the out side**
        (followers-of-celebrity edges are modeled on the in side too when
        ``in_out_symmetry == 1``).
    in_out_symmetry:
        1.0 = same weight vector for sources and destinations (orkut-like,
        symmetric friendships); < 1 skews the destination weights toward
        uniformity, lowering max in-degree relative to max out-degree
        (twitter-like: one account tweets at millions, few accounts are
        followed by that many within a sampled subgraph).
    """
    src, dst = edge_list(
        powerlaw_chunks, num_vertices, avg_degree, exponent, num_hubs,
        hub_degree_fraction, in_out_symmetry, seed,
    )
    return from_edges(
        src, dst, num_vertices=num_vertices, dedup=False, name=name or "powerlaw"
    )

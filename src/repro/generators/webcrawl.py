"""Web-crawl graph generator.

The paper's web crawls (indochina04, uk07, clueweb12, uk14, wdc14) differ
from social networks in three ways that drive the study's conclusions:

* **max in-degree is enormous relative to max out-degree** (a page links to
  at most a few thousand URLs, but popular pages are linked by millions) —
  this is what makes pull-style pagerank load-imbalanced under TWC and is
  why ALB wins on clueweb12/uk14 (Section V-B2);
* **host locality**: most links stay within a host neighborhood, giving
  edge-cuts decent partitions;
* **long-tail diameter**: crawl frontiers leave chains of pages (uk14's
  approximate diameter is 2498) — this is why Async loses on bfs/uk14
  (Section V-B4).

The generator builds those three ingredients directly:

1. vertices are grouped into contiguous "hosts"; each page links mostly
   within a window around its host (locality);
2. a small set of authority pages receives a Zipf-heavy share of all links
   (huge max in-degree), while out-degree stays bounded;
3. a ``tail_fraction`` of vertices is rewired into a long path appended to
   the crawl (long-tail diameter knob).
"""

from __future__ import annotations

import numpy as np

from repro.generators.sampling import WeightedSampler
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.utils import rng_from_seed

__all__ = ["webcrawl"]


def webcrawl(
    num_vertices: int,
    avg_degree: float,
    locality_window: int = 512,
    authority_fraction: float = 0.001,
    authority_share: float = 0.25,
    tail_length: int = 0,
    max_out_degree: int | None = None,
    seed: int | None = 0,
    name: str = "",
) -> CSRGraph:
    """Generate a synthetic web crawl.

    Parameters
    ----------
    locality_window:
        links land within ± this many vertex IDs of the source (crawl order
        correlates with host locality), except for authority links.
    authority_fraction, authority_share:
        ``authority_fraction * |V|`` authority pages receive
        ``authority_share`` of all links, Zipf-distributed among them;
        this produces max in-degrees orders of magnitude above max
        out-degree.
    tail_length:
        number of trailing vertices arranged in a path hanging off the
        crawl — raises the diameter by ``tail_length``.
    max_out_degree:
        hard cap on out-degree (pages have bounded link counts); ``None``
        leaves the Poisson-ish out-degrees uncapped.
    """
    if num_vertices <= 2:
        raise ValueError("need at least 3 vertices")
    if tail_length >= num_vertices - 1:
        raise ValueError("tail longer than graph")
    rng = rng_from_seed(seed)
    core_n = num_vertices - tail_length
    m = int(round(num_vertices * avg_degree))

    # --- out-degrees: lognormal-ish, bounded -------------------------------
    out_deg = rng.lognormal(mean=np.log(max(avg_degree, 1.0)), sigma=0.9, size=core_n)
    if max_out_degree is not None:
        out_deg = np.minimum(out_deg, max_out_degree)
    out_deg = np.maximum(out_deg * (m / out_deg.sum()), 0.0)
    src = WeightedSampler(out_deg / out_deg.sum()).draw(rng, m)

    # --- destinations: locality + authorities ------------------------------
    n_auth = max(1, int(core_n * authority_fraction))
    auth_ids = rng.choice(core_n, size=n_auth, replace=False)
    zipf_w = 1.0 / np.arange(1, n_auth + 1, dtype=np.float64)
    zipf_w /= zipf_w.sum()

    to_auth = rng.random(m) < authority_share
    n_to_auth = int(to_auth.sum())
    dst = np.empty(m, dtype=np.int64)
    dst[to_auth] = auth_ids[WeightedSampler(zipf_w).draw(rng, n_to_auth)]

    local = ~to_auth
    n_local = m - n_to_auth
    offset = rng.integers(-locality_window, locality_window + 1, size=n_local)
    dst[local] = np.clip(src[local] + offset, 0, core_n - 1)

    keep = src != dst
    src, dst = src[keep], dst[keep]

    # --- long tail ----------------------------------------------------------
    if tail_length > 0:
        tail = np.arange(core_n - 1, num_vertices - 1, dtype=np.int64)
        src = np.concatenate([src, tail, tail + 1])
        dst = np.concatenate([dst, tail + 1, tail])  # bidirectional chain

    return from_edges(
        src, dst, num_vertices=num_vertices, dedup=False, name=name or "webcrawl"
    )

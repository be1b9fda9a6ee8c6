"""Golden table ``partition``: partition builds and CSR transforms, pinned as data.

Until PR 16 every CSR build sorted its edges with ``np.lexsort`` and
``build_partitions`` derived proxy sets from one global ``np.unique``.
What that code computed survives in ``tests/cases/partition_golden.json``:
for seven policies x P in {1, 4, 7} x four inputs, one SHA-1 per partition
over ``indptr`` / ``indices`` / ``weights`` / ``local_to_global`` /
``is_master`` and both exchange dicts (in peer order), plus the
``content_hash()`` of ``make_undirected`` and ``reverse()`` of each input.
The table was produced at the parent commit ``393e438``; the ordering
primitive and the streaming partition build must reproduce every row.
The ``metis-like`` and ``random`` rows were added at ``336951d``, before
``bfs_order`` moved onto the graph layer's wave generator (PR 22).

The four inputs cover the branches of :func:`repro.graph.order.order_edges`:
a generator graph (partition edge lists arrive ordered), its symmetrized
view, a hand-built :class:`CSRGraph` whose rows are **not** dst-sorted (the
ordered check must fail and the sort must equal lexsort), and a multigraph
whose parallel edges carry distinct weights (ties keep input order).

``tests/golden.py`` checks and records the groups below.  A row that
moves is a semantic change, never noise.
"""

from __future__ import annotations

import hashlib
from functools import cache, partial

import numpy as np
import pytest

from repro.generators import rmat
from repro.graph import CSRGraph, add_random_weights, make_undirected
from repro.partition import partition
from tests import golden

POLICIES = ("oec", "iec", "hvc", "cvc", "jagged", "metis-like", "random")
PARTS = (1, 4, 7)


def _unsorted_rows() -> CSRGraph:
    """Weighted CSR built by hand: destinations within a row are in draw
    order (not sorted) and repeat, so no ordered fast path may fire."""
    rng = np.random.default_rng(16)
    n = 97
    deg = rng.integers(0, 9, n)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    indices = rng.integers(0, n, int(indptr[-1]))
    weights = rng.integers(1, 101, len(indices))
    g = CSRGraph(indptr, indices, weights, name="unsorted")
    rows = np.repeat(np.arange(n), deg)
    assert np.any((rows[1:] == rows[:-1]) & (indices[1:] < indices[:-1]))
    return g


def _parallel_edges() -> CSRGraph:
    """Multigraph with dst-sorted rows where every (src, dst) pair occurs
    1-4 times with distinct weights: any unstable sort moves a weight."""
    rng = np.random.default_rng(61)
    n = 64
    src = np.sort(rng.integers(0, n, 300))
    dst = rng.integers(0, n, 300)
    order = np.lexsort((dst, src))
    reps = rng.integers(1, 5, 300)
    src, dst = np.repeat(src[order], reps), np.repeat(dst[order], reps)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    weights = rng.permutation(len(src)) + 1  # all distinct
    return CSRGraph(indptr, dst, weights, name="parallel")


@cache
def inputs() -> dict[str, CSRGraph]:
    gen = add_random_weights(rmat(8, edge_factor=8, seed=3), seed=5)
    return {
        "rmat8": gen,
        "rmat8+sym": make_undirected(gen),
        "unsorted": _unsorted_rows(),
        "parallel": _parallel_edges(),
    }


def _sha1(arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        if a is None:
            h.update(b"|none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"|{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


def partition_digest(part) -> str:
    arrays = [
        part.graph.indptr, part.graph.indices, part.graph.weights,
        part.local_to_global, part.is_master,
    ]
    for exchange in (part.mirror_exchange, part.master_exchange):
        for q in sorted(exchange):
            arrays += [np.asarray([q]), exchange[q]]
    return _sha1(arrays)


def partition_rows(name: str) -> dict[str, list[str]]:
    g = inputs()[name]
    return {
        f"partitions/{name}/{policy}/{parts}": [
            partition_digest(p)
            for p in partition(g, policy, parts, cache=False).parts
        ]
        for policy in POLICIES
        for parts in PARTS
    }


def transform_rows() -> dict[str, dict[str, str]]:
    return {
        f"transforms/{name}": {
            "undirected": make_undirected(g).content_hash(),
            "reverse": g.reverse().content_hash(),
        }
        for name, g in inputs().items()
    }


NAMES = ("rmat8", "rmat8+sym", "unsorted", "parallel")
GROUPS = {
    **{f"partitions/{n}": partial(partition_rows, n) for n in NAMES},
    "transforms": transform_rows,
}


@pytest.mark.parametrize("name", NAMES)
def test_partitions_match_golden(name):
    golden.check("partition", f"partitions/{name}")


def test_transforms_match_golden():
    golden.check("partition", "transforms")

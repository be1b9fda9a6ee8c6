#!/usr/bin/env python
"""Bring your own graph: run the stack on a custom edge list.

Builds a graph from an in-repo generated edge list (standing in for your
own data), wires it into a Dataset-like flow manually — partition, engine,
context — without the framework facades, which is the integration path a
downstream user embedding this library would take.  Last, it writes the
graph once as a store container, the form in which a graph of your own
reaches the dataset loader (and so the facades and study cells) by name.

    python examples/custom_dataset.py
"""

import os
import tempfile

import numpy as np

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BSPEngine, RunContext
from repro.generators import load_dataset, small_world
from repro.graph import (
    add_random_weights,
    load_edgelist,
    save_edgelist,
    write_csr_store,
)
from repro.hw import uniform_cluster
from repro.partition import partition
from repro.validation import reference_bfs


def main() -> None:
    # pretend this file came from your data pipeline
    with tempfile.NamedTemporaryFile(suffix=".el", delete=False) as f:
        path = f.name
    save_edgelist(small_world(5000, k=6, rewire_p=0.05, seed=3), path)

    graph = add_random_weights(load_edgelist(path), seed=0)
    print(f"loaded {graph!r} from {path}")

    pg = partition(graph, "cvc", 8)
    print(f"partitioned: replication factor {pg.replication_factor:.2f}, "
          f"grid {pg.grid}")

    cluster = uniform_cluster(8, gpus_per_host=4)
    source = int(np.argmax(graph.out_degrees()))
    ctx = RunContext(
        num_global_vertices=graph.num_vertices,
        source=source,
        global_out_degrees=graph.out_degrees(),
    )
    engine = BSPEngine(
        pg, cluster, get_app("bfs"),
        comm_config=CommConfig(update_only=True),
        check_memory=False,
    )
    result = engine.run(ctx)
    assert np.array_equal(result.labels, reference_bfs(graph, source))
    print(f"bfs from {source}: {result.stats.rounds} rounds, "
          f"eccentricity {result.labels[result.labels < 2**32 - 1].max()}")
    print(result.stats.summary())

    store = path + ".csr"
    write_csr_store(graph, store)
    ds = load_dataset(f"store+mmap:{store}")
    assert ds.graph.content_hash() == graph.content_hash()
    print(f"stored as dataset {ds.name!r}")
    for leftover in (path, store):
        os.remove(leftover)


if __name__ == "__main__":
    main()

"""Golden table ``sync``: what the sync path computes, pinned as data.

Until PR 17 both engines delivered one ``Message`` object at a time:
``apply_reduce`` / ``apply_broadcast`` per message, a ``Message`` +
``MessageHeader`` per partner in extraction, the BASP drain re-pricing
every message it popped.  What that code computed survives in
``tests/cases/sync_golden.json``: for rmat(9, seed 3) x six apps x
{oec, cvc} x P in {4, 7} x {BSP, BASP} x {AS, UO} every ``RunStats``
field (arrays as SHA-1), the CRC of the output labels and a SHA-1 over
the extra outputs — plus rows for the options that reroute the sync path
(explicit-id wire format, no invariant filtering, two-level sync, a
contended cluster, GPUDirect, overlap hiding, the async throttle, the
threaded executor).  The table was produced at the parent commit
``2488378``; the batch-native path must reproduce every row, and
``tests/test_determinism.py`` holds runs built from scratch to its
``matrix/{app}/cvc/4/{engine}/uo`` rows.  ``tests/golden.py`` checks and
records the groups below.  A row that moves is a semantic change, never
noise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import zlib
from functools import cache, partial

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import ContentionConfig, bridges
from repro.partition import partition
from tests import golden

APPS = ("bfs", "cc", "kcore", "pr", "pr-push", "sssp")
LAYOUTS = (("oec", 4), ("oec", 7), ("cvc", 4), ("cvc", 7))
ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}
COMMS = {"as": False, "uo": True}

#: name -> (comm-config overrides, cluster overrides, engine overrides),
#: each run on pr (float ``add`` reduce + overwrite broadcast) and bfs
#: (``min`` reduce + merging broadcast) at cvc/P=7 under both engines
OPTIONS = {
    "explicit-ids": (dict(memoize_addresses=False), {}, {}),
    "explicit-ids-as": (
        dict(memoize_addresses=False, update_only=False), {}, {},
    ),
    "no-filtering": (dict(invariant_filtering=False), {}, {}),
    "hierarchical": (dict(hierarchical=True), {}, {}),
    "contended": ({}, dict(contention=ContentionConfig()), {}),
    "contended-hier": (
        dict(hierarchical=True), dict(contention=ContentionConfig()), {},
    ),
    "gpudirect": ({}, dict(gpudirect=True), {}),
    "overlap": ({}, {}, dict(overlap_comm=0.5)),
    "throttle": ({}, {}, dict(throttle_wait=2e-3)),
}
OPTION_APPS = ("pr", "bfs")
OPTION_LAYOUT = ("cvc", 7)


class Inputs:
    """Graphs, contexts and partitions, built once per table."""

    def __init__(self):
        g = add_random_weights(rmat(9, edge_factor=8, seed=3), seed=0)
        sym = add_random_weights(make_undirected(g), seed=1)
        self.graphs = {False: g, True: sym}
        self.sym_degrees = sym.out_degrees()
        self._pgs = {}

    def cell(self, app_name, policy, parts):
        app = get_app(app_name)
        base = self.graphs[app.needs_symmetric]
        key = (app.needs_symmetric, policy, parts)
        if key not in self._pgs:
            self._pgs[key] = partition(base, policy, parts, cache=False)
        ctx = RunContext(
            num_global_vertices=base.num_vertices,
            source=int(np.argmax(base.out_degrees())),
            k=8,
            global_out_degrees=base.out_degrees(),
            global_degrees=self.sym_degrees,
        )
        return app, self._pgs[key], ctx


def _sha1(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha1(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.data)
    return h.hexdigest()


def result_row(res) -> dict:
    row = {}
    for f in dataclasses.fields(res.stats):
        v = getattr(res.stats, f.name)
        row[f.name] = _sha1(v) if isinstance(v, np.ndarray) else v
    row["labels_crc"] = zlib.crc32(np.ascontiguousarray(res.labels).tobytes())
    row["extra"] = {k: _sha1(res.extra[k]) for k in sorted(res.extra)}
    return row


def run_row(
    inputs, app_name, policy, parts, engine, update_only,
    comm=None, cluster=None, engine_kwargs=None,
) -> dict:
    app, pg, ctx = inputs.cell(app_name, policy, parts)
    config = CommConfig(**{"update_only": update_only, **(comm or {})})
    eng = ENGINES[engine](
        pg, bridges(parts, **(cluster or {})), app, comm_config=config,
        check_memory=False, **(engine_kwargs or {}),
    )
    return result_row(eng.run(ctx))


shared_inputs = cache(Inputs)


def matrix_rows(app: str) -> dict[str, dict]:
    return {
        f"matrix/{app}/{policy}/{parts}/{engine}/{comm}": run_row(
            shared_inputs(), app, policy, parts, engine, COMMS[comm]
        )
        for policy, parts in LAYOUTS
        for engine in ENGINES
        for comm in COMMS
    }


def option_rows(name: str) -> dict[str, dict]:
    policy, parts = OPTION_LAYOUT
    comm, cluster, engine_kwargs = OPTIONS[name]
    return {
        f"options/{name}/{app}/{engine}": run_row(
            shared_inputs(), app, policy, parts, engine, True,
            comm, cluster, engine_kwargs,
        )
        for app in OPTION_APPS
        for engine in ENGINES
        if not (engine == "bsp" and name == "throttle")  # BASP's knob
    }


GROUPS = {
    **{f"matrix/{app}": partial(matrix_rows, app) for app in APPS},
    **{f"options/{name}": partial(option_rows, name) for name in OPTIONS},
}


@pytest.mark.parametrize("app", APPS)
def test_matrix_matches_golden(app):
    golden.check("sync", f"matrix/{app}")


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_options_match_golden(option):
    golden.check("sync", f"options/{option}")

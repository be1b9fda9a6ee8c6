"""The six workloads: what one pass runs, through public entry points only.

A workload is a fixed list of *ops*.  An op is one ``CellSpec`` /
``PartitionStatsSpec`` handed to ``SweepExecutor.map`` or one request of a
served trace.  ``prepare`` makes the inputs from the harness seed (the
program never sees the seed), ``reset`` drops what a pass must not inherit,
``execute`` is the timed part, ``collect`` turns its result into op
fingerprints and counts, and ``cold`` says whether a pass starts from empty
caches (then set-up runs no warm pass).

What the seed reaches is deliberately narrow: the bfs source, drawn from
the 32 highest-out-degree vertices.  Measured on this repo, bfs time does
not depend on that choice, while an sssp source moves its cell by -22..+6 %,
another serve trace seed moves a pass by +-20 % and another R-MAT seed
moves pr-push from 41 to 58 rounds.  The driver takes the spread of a
metric over ten seeds for its noise, so an input whose cost follows the
seed would eat the whole bound; those inputs are constants of the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GATED", "Op", "PassOutput", "WORKLOADS", "make_workload"]

#: how many of the highest-out-degree vertices the seed draws a source from
SOURCE_POOL = 32


@dataclass
class Op:
    """One operation's outcome in one pass."""

    id: str
    #: exact result fingerprint (ints and floats that must repeat)
    fp: dict
    #: "" when the op did what it should
    failure: str = ""
    elapsed: float = 0.0
    labels: np.ndarray | None = None
    #: False when the op's inputs do not depend on the harness seed
    seeded: bool = False


@dataclass
class PassOutput:
    ops: list
    #: counts only the workload can read (disk footprint, serve counters)
    counts: dict = field(default_factory=dict)
    #: whole-pass artefact that must be byte-identical across passes
    digest: str = ""


def pick_source(graph, seed: int) -> int:
    """The seed's bfs source: one of the highest-out-degree vertices."""
    deg = np.asarray(graph.out_degrees(), dtype=np.int64)
    pool = np.argsort(-deg, kind="stable")[:SOURCE_POOL]
    return int(pool[np.random.default_rng(seed).integers(len(pool))])


def _dir_mib(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / 2**20


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------------- #
# cell workloads (SweepExecutor.map over CellSpec / PartitionStatsSpec)
# --------------------------------------------------------------------- #
def _cell_op(spec, out, seeded: bool) -> Op:
    op_id = "/".join(str(p) for p in spec.key)
    if out.pstats is not None:
        text = json.dumps(out.pstats.to_dict(), sort_keys=True)
        fp = {"pstats_crc": zlib.crc32(text.encode())}
    elif out.stats is not None:
        s = out.stats
        fp = {
            "labels_crc": out.labels_crc,
            "rounds": int(s.rounds),
            "num_messages": int(s.num_messages),
            "work_items": float(s.work_items),
            "execution_time": float(s.execution_time),
        }
    else:
        fp = {}
    failure = f"{out.failure_kind}: {out.failure}" if out.failure_kind else ""
    return Op(op_id, fp, failure, out.elapsed, out.labels, seeded)


class CellWorkload:
    """Shared run shape of the five workloads made of sweep cells."""

    name = ""
    why = ""
    cold = False
    #: extra ``execute`` arguments of the set-up pass; when there are any
    #: that pass is checked on its own, not held to the timed passes
    warm_kwargs: dict = {}
    #: kwargs of the per-pass ``SweepExecutor`` besides ``jobs=1``
    executor_kwargs: dict = {}

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.specs: list = []
        self.seeded: list[bool] = []
        self.cache_dir: str | None = None
        self.store_path: str | None = None

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop whatever a pass of this workload must not inherit (untimed)."""

    def execute(self):
        """The timed part of a pass: one serial sweep over every spec."""
        from repro.runtime.sweep import SweepExecutor

        with SweepExecutor(
            jobs=1, engine_executor="serial", **self.executor_kwargs
        ) as ex:
            return ex.map(self.specs)

    def collect(self, outcomes) -> PassOutput:
        """Fingerprints and result counts of an executed pass (untimed)."""
        ops = [
            _cell_op(spec, out, seeded)
            for spec, out, seeded in zip(self.specs, outcomes, self.seeded)
        ]
        counts = {}
        if self.cache_dir:
            counts["disk_mb"] = _dir_mib(self.cache_dir)
        if self.store_path:
            counts["store_mb"] = os.path.getsize(self.store_path) / 2**20
        return PassOutput(ops, counts)

    def _add(self, spec, seeded: bool) -> None:
        self.specs.append(spec)
        self.seeded.append(seeded)


def _dirgl(policy: str, variant: str = "var4"):
    from repro.runtime.cells import SystemSpec

    knobs = {
        "var2": dict(update_only=False, execution="sync"),
        "var3": dict(update_only=True, execution="sync"),
        "var4": dict(update_only=True, execution="async"),
    }[variant]
    return SystemSpec.dirgl(policy=policy, **knobs)


class _Study(CellWorkload):
    """uk07-s, four policies at P=32: partition statistics + one bfs each.

    The issue's list also had the P=8 half; it was dropped from the end
    to fit the driver's time cap (README, "Sizes").
    """

    dataset = "uk07-s"
    policies = ("oec", "iec", "hvc", "cvc")
    parts = 32

    def prepare(self, seed: int) -> None:
        from repro.generators.datasets import load_dataset
        from repro.runtime.cells import CellSpec, PartitionStatsSpec

        load_dataset.cache_clear()
        source = pick_source(load_dataset(self.dataset).graph, seed)
        self.specs, self.seeded = [], []
        for policy in self.policies:
            self._add(
                PartitionStatsSpec(
                    key=("pstats", policy, self.parts), dataset=self.dataset,
                    policy=policy, num_gpus=self.parts,
                ),
                seeded=False,
            )
            self._add(
                CellSpec(
                    key=("bfs", policy, self.parts), system=_dirgl(policy),
                    benchmark="bfs", dataset=self.dataset, num_gpus=self.parts,
                    ctx_overrides=(("source", source),), keep_labels=True,
                ),
                seeded=True,
            )


class StudyCold(_Study):
    name = "study-cold"
    why = (
        "first repro-study --cache-dir invocation: generation, symmetrization, "
        "partition builds and cache writes on an empty cache_dir"
    )
    cold = True

    def reset(self) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure

        load_dataset.cache_clear()
        self.cache_dir = _fresh_dir(os.path.join(self.workdir, "cache"))
        configure(cache_dir=self.cache_dir)
        self.executor_kwargs = {"cache_dir": self.cache_dir}


class StudyWarm(_Study):
    name = "study-warm"
    why = (
        "second invocation over the populated cache_dir: partitions are "
        "loaded from disk (builds == 0), what remains is generation, stats and BASP"
    )

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.cache_dir = _fresh_dir(os.path.join(self.workdir, "cache"))
        self.executor_kwargs = {"cache_dir": self.cache_dir}

    def reset(self) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure

        load_dataset.cache_clear()
        configure(cache_dir=self.cache_dir)  # fresh memory LRU, same disk


class SyncHeavy(CellWorkload):
    name = "sync-heavy"
    why = (
        "orkut-s at P=32 in steady state: many partitions over a small graph, "
        "so Gluon extract/apply/price and the BSP and BASP round loops own the pass"
    )
    dataset = "orkut-s"
    parts = 32

    def prepare(self, seed: int) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure
        from repro.runtime.cells import CellSpec

        load_dataset.cache_clear()
        configure()
        source = pick_source(load_dataset(self.dataset).graph, seed)
        self.specs, self.seeded = [], []

        # pr converges to 1e-2, not the default 1e-4: half the rounds of
        # the same four cells, which the driver's time cap asked for
        overrides = {"bfs": (("source", source),), "pr": (("tolerance", 1e-2),)}

        def cell(app, policy, variant):
            self._add(
                CellSpec(
                    key=(app, policy, variant), system=_dirgl(policy, variant),
                    benchmark=app, dataset=self.dataset, num_gpus=self.parts,
                    ctx_overrides=overrides.get(app, ()), keep_labels=True,
                ),
                seeded=app == "bfs",
            )

        for variant in ("var2", "var3", "var4"):
            cell("pr", "cvc", variant)
        cell("pr", "oec", "var3")
        for app in ("cc", "bfs"):
            for policy in ("cvc", "oec"):
                for variant in ("var3", "var4"):
                    cell(app, policy, variant)


class ComputeHeavy(CellWorkload):
    name = "compute-heavy"
    why = (
        "clueweb12-s (3.2M edges) at P=2 in steady state: few partitions over "
        "the largest stand-in, so the apps kernels own the pass and comm+engine do not"
    )
    dataset = "clueweb12-s"
    parts = 2
    apps = ("sssp", "cc", "pr", "kcore", "bfs")

    def prepare(self, seed: int) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure
        from repro.runtime.cells import CellSpec

        load_dataset.cache_clear()
        configure()
        source = pick_source(load_dataset(self.dataset).graph, seed)
        self.specs, self.seeded = [], []
        for app in self.apps:
            seeded = app == "bfs"
            self._add(
                CellSpec(
                    key=(app, "oec", "var3"), system=_dirgl("oec", "var3"),
                    benchmark=app, dataset=self.dataset, num_gpus=self.parts,
                    check_memory=False, keep_labels=True,
                    ctx_overrides=(("source", source),) if seeded else (),
                ),
                seeded,
            )


class OocMmap(CellWorkload):
    name = "ooc-mmap"
    why = (
        "bfs + pr-push on an mmap'd R-MAT store with spilled iec/P=4 shards: "
        "store reads, shard loads and blocked frontier expansion (ROADMAP 1(c))"
    )
    scale = 13
    #: the issue's store had edge_factor 256; halved for the time cap
    edge_factor = 128
    rmat_seed = 11
    parts = 4
    block_edges = 131072

    def prepare(self, seed: int) -> None:
        from repro.generators.chunked import build_store
        from repro.generators.datasets import load_dataset
        from repro.partition import partition
        from repro.partition.cache import configure
        from repro.runtime.cells import CellSpec

        os.environ["REPRO_BLOCK_EDGES"] = str(self.block_edges)
        load_dataset.cache_clear()
        root = _fresh_dir(os.path.join(self.workdir, "ooc"))
        self.store_path = os.path.join(root, "rmat.csr")
        build_store(
            "rmat", self.scale, self.store_path, seed=self.rmat_seed,
            edge_factor=self.edge_factor, chunk_edges=1 << 20,
        )
        self.cache_dir = os.path.join(root, "shards")
        self.executor_kwargs = {"cache_dir": self.cache_dir, "spill_shards": True}
        dataset = f"store+mmap:{self.store_path}"
        graph = load_dataset(dataset).graph
        configure(cache_dir=self.cache_dir, spill_shards=True)
        partition(graph, "iec", self.parts)  # spills the shards a pass reloads
        source = pick_source(graph, seed)
        self.specs, self.seeded = [], []
        for app, overrides in (
            ("bfs", (("source", source),)),
            ("pr-push", (("tolerance", 1e-2),)),
        ):
            self._add(
                CellSpec(
                    key=(app, "iec", "var3"), system=_dirgl("iec", "var3"),
                    benchmark=app, dataset=dataset, num_gpus=self.parts,
                    check_memory=False, ctx_overrides=overrides,
                    keep_labels=True,
                ),
                seeded=app == "bfs",
            )

    def reset(self) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure

        load_dataset.cache_clear()
        configure(cache_dir=self.cache_dir, spill_shards=True)


# --------------------------------------------------------------------- #
# the served trace
# --------------------------------------------------------------------- #
class ServeMutating:
    name = "serve-mutating"
    why = (
        "repro-serve on its write path: mutation, snapshot and content hash, "
        "patch-or-repartition, full or incremental run beside cache hits and coalesced reads"
    )
    cold = False
    # Nothing stays warm between two invocations of the service, so the
    # set-up pass is spent re-running every delta execution from scratch
    # (a mismatch raises AssertionError).  The extra full runs plant
    # partitionings, which legitimately moves patch decisions and
    # simulated costs: that pass is not comparable to the plain ones.
    warm_kwargs = {"verify_incremental": True}
    trace_seed = 11
    #: the issue's trace had 250; cut to fit the driver's time cap
    num_requests = 125

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.trace = None
        self.spool = ""
        self.cache_dir = ""

    def prepare(self, seed: int) -> None:
        from repro.serve.traffic import TrafficConfig, generate_trace

        self.trace = generate_trace(
            TrafficConfig(
                seed=self.trace_seed, num_clients=8,
                num_requests=self.num_requests, mean_interarrival=0.002,
                apps=("bfs", "cc", "pr", "sssp"),
                graphs=((12, 8.0), (13, 8.0)), mutate_every=5,
            )
        )

    def trace_digest(self) -> str:
        return hashlib.sha256(self.trace.to_json().encode()).hexdigest()

    def reset(self) -> None:
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure

        # every pass is a fresh repro-serve invocation: empty spool, empty
        # partition cache, no datasets left over from the pass before
        load_dataset.cache_clear()
        self.spool = _fresh_dir(os.path.join(self.workdir, "spool"))
        self.cache_dir = os.path.join(self.spool, "partition-cache")
        # run_trace's executor keeps a global cache that already points at
        # its cache_dir, memory LRU included, so point a new one there
        configure(cache_dir=self.cache_dir)

    def execute(self, verify_incremental: bool = False):
        from repro.serve.cli import run_trace
        from repro.serve.service import ServeConfig

        config = ServeConfig(
            workers=2, parts=4, verify_incremental=verify_incremental
        )
        return run_trace(self.trace, config, jobs=1, spool_dir=self.spool)

    def collect(self, report) -> PassOutput:
        ops = []
        for rec in report.requests:
            fp = {
                "served_by": rec["served_by"], "mode": rec["mode"],
                "labels_crc": rec["labels_crc"], "latency": rec["latency"],
            }
            bad = rec["served_by"] in ("failed", "rejected", "")
            ops.append(
                Op(f"r{rec['rid']}", fp, rec["served_by"] or "lost" if bad else "")
            )
        counts = dict(report.counters)
        counts["sim_p50_latency_s"] = report.latency["median"]
        counts["sim_p90_latency_s"] = report.latency["p90"]
        counts["disk_mb"] = _dir_mib(self.cache_dir)
        counts["store_mb"] = _dir_mib(self.spool) - counts["disk_mb"]
        # the config echo differs between a verifying and a plain pass;
        # nothing the service computed may
        body = {
            k: v for k, v in json.loads(report.to_json()).items()
            if k != "config"
        }
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        return PassOutput(ops, counts, digest)


WORKLOADS = {
    w.name: w
    for w in (StudyCold, StudyWarm, SyncHeavy, ComputeHeavy, ServeMutating, OocMmap)
}


#: The workloads ``BENCHMARK.json`` names, i.e. the ones the driver runs and
#: holds to the bounds.  The driver's time cap pays for four workloads of
#: twenty measured seconds or six of eight, and eight-second medians are
#: too noisy on this box (README, "Noise").  ``study-warm`` and
#: ``ooc-mmap`` stay runnable through ``run`` and ``compare``.
GATED = ("study-cold", "sync-heavy", "compute-heavy", "serve-mutating")


def make_workload(name: str, workdir: str):
    try:
        return WORKLOADS[name](workdir)
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None

"""Golden table ``study``: the paper's evaluation as rows, and its claims.

Each table and figure is a ``repro-study`` row (``_EXPERIMENTS`` in
``repro.study.cli``); its ``--quick`` grid runs through a :class:`Recorder`
and each cell becomes a row keyed ``{experiment}/{dataset}/{bench}/
{system}/{P}`` holding the :data:`COLUMNS` (an OOM is a value).  Beside
them: Table I and the microbenchmark as returned, ``claims/...`` cells no
figure runs, and the ablations and extensions (:func:`engine_row`).  A
group is one (experiment, dataset, benchmark).  Every claim is a predicate
over the recorded rows and fails on a missing or failed one;
``python -m tests.golden record study`` recomputes them (about 3 min).
"""

import copy
import inspect
import zlib
from argparse import Namespace
from functools import partial

import numpy as np
import pytest

from repro.apps import count_triangles, get_app, ktruss, run_bc
from repro.apps.tc import reference_triangle_count
from repro.comm import CommConfig
from repro.constants import GIB
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.frameworks.dirgl import DIrGL
from repro.generators import load_dataset
from repro.generators.datasets import dataset_names
from repro.hw import ContentionConfig, bridges, dgx2
from repro.partition import partition, partition_stats
from repro.partition.cache import PartitionCache, get_cache, set_cache
from repro.runtime.cells import CellSpec, PartitionStatsSpec, SystemSpec, run_task
from repro.study.cli import _EXPERIMENTS
from repro.validation.reference import reference_bc_single_source
from tests import golden

#: what a run's :class:`~repro.metrics.stats.RunStats` says
RUN_COLUMNS = (
    "execution_time", "max_compute", "min_wait", "device_comm",
    "comm_volume_bytes", "num_messages", "inter_host_messages", "rounds",
    "local_rounds_min", "local_rounds_max", "work_items", "memory_max_bytes",
    "dynamic_balance", "memory_balance",
)
#: what the cut's :class:`~repro.partition.stats.PartitionStats` says
PARTITION_COLUMNS = ("static_balance", "max_comm_partners")
COLUMNS = RUN_COLUMNS + PARTITION_COLUMNS + ("labels_crc", "failure_kind")
POLICIES = ("CVC", "HVC", "IEC", "OEC")
MEDIUM, LARGE, SMALL = (dataset_names(c) for c in ("medium", "large", "small"))


# --------------------------------------------------------------------------- #
# rows
# --------------------------------------------------------------------------- #
def crc(a) -> int:
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


def row(stats=None, labels_crc=None, pstats=None, failure_kind="") -> dict:
    """Every column; ``None`` where the cell does not measure it."""
    r = {**dict.fromkeys(COLUMNS), "labels_crc": labels_crc,
         "failure_kind": failure_kind}
    if stats is not None:
        r.update({c: np.asarray(getattr(stats, c)).item() for c in RUN_COLUMNS})
    if pstats is not None:
        r.update({c: getattr(pstats, c) for c in PARTITION_COLUMNS})
    return r


class Recorder:
    """An executor that runs each cell here and keeps ``(spec, outcome)``."""

    def __init__(self):
        self.ran = []

    def map(self, specs):
        outcomes = [run_task(s) for s in specs]
        self.ran += zip(specs, outcomes)
        return outcomes


def cell_key(experiment: str, spec) -> str:
    """The row key of one cell, its system named as the experiment's own
    cell key names it."""
    k = spec.key
    if experiment == "table2":  # (bench, framework, dataset, policy, P)
        bench, system = k[0], "-".join(filter(None, (k[1], k[3])))
    elif experiment == "table3":  # (framework, dataset), cc only
        bench, system = spec.benchmark, k[0]
    elif experiment == "table4":  # (run | pstats, bench, policy, dataset)
        bench, system = k[1], k[2].upper()
    elif experiment in ("fig3", "fig7"):  # a scaling point (system, P)
        bench, system = spec.benchmark, k[0]
    else:  # a bar (dataset, bench, system); a claim (dataset, bench, system, P)
        bench, system = k[1], k[2]
    return f"{experiment}/{spec.dataset}/{bench}/{system}/{spec.num_gpus}"


def cell_rows(experiment: str, ran) -> dict:
    """One row per cell key: a partition-statistics cell fills in the
    partition columns of the run it shares a key with (Table IV)."""
    rows: dict = {}
    for spec, out in ran:
        r = row(out.stats, out.labels_crc, out.pstats, out.failure_kind)
        old = rows.setdefault(cell_key(experiment, spec), r)
        old.update({c: v for c, v in r.items() if v not in (None, "")})
    return rows


# --------------------------------------------------------------------------- #
# groups: the paper's tables and figures, claims-only cells, ablations
# --------------------------------------------------------------------------- #
#: each cell experiment's inputs (what its ``datasets=None`` resolves to)
INPUTS = {"table2": SMALL, "table3": SMALL, "fig6": LARGE, "fig9": LARGE,
          "table4": ["uk07-s", "uk14-s"]}


def experiment_groups(experiment: str) -> list[str]:
    params = inspect.signature(_EXPERIMENTS[experiment].fn).parameters
    benches = _EXPERIMENTS[experiment].grid.get(  # Table III is cc only
        "benchmarks", params["benchmarks"].default if "benchmarks" in params else ["cc"])
    return [f"{experiment}/{ds}/{b}" for ds in INPUTS.get(experiment, MEDIUM) for b in benches]


def experiment_rows(experiment: str, dataset: str, bench: str) -> dict:
    """The ``--quick`` grid cut down to one dataset and benchmark."""
    fn, grid = _EXPERIMENTS[experiment].fn, dict(_EXPERIMENTS[experiment].grid)
    params = inspect.signature(fn).parameters
    if experiment == "table4":
        grid["configs"] = [c for c in params["configs"].default if c[0] == dataset]
    else:
        grid["datasets"] = [dataset]
    if "benchmarks" in params:
        grid["benchmarks"] = [bench]
    rec = Recorder()
    fn(**grid, executor=rec)
    return cell_rows(experiment, rec.ran)


def table1_rows() -> dict:
    rows, _ = _EXPERIMENTS["table1"].run(Namespace(quick=True), None)
    return {f"table1/{r[0]}": [np.asarray(v).item() for v in r[1:]] for r in rows}


def microbench_rows() -> dict:
    (points, crossings), _ = _EXPERIMENTS["microbench"].run(Namespace(quick=True), None)
    rows = {f"microbench/curve/{p.updated_fraction}": {
        "as_seconds": p.as_seconds, "uo_seconds": p.uo_seconds} for p in points}
    return rows | {f"microbench/crossover/{n}": x for n, x in crossings.items()}


#: (dataset, bench, system, P) a claim reads that no figure runs:
#: ``CVC-sync`` is D-IrGL under BSP, ``var1``..``var4`` / ``lux`` the
#: study's variants over IEC; all without memory enforcement
CLAIM_CELLS = (
    *[("twitter50-s", b, f"{p}-sync", 32)
      for b in ("bfs", "cc", "pr", "sssp") for p in POLICIES],
    *[("twitter50-s", "sssp", f"{p}-sync", n)
      for p in ("CVC", "IEC") for n in (2, 4, 16, 64)],
    ("twitter50-s", "cc", "var4", 4),
    *[("uk07-s", "cc", v, 32) for v in ("var1", "var2", "var3")],
    ("uk07-s", "kcore", "var2", 32), ("uk07-s", "kcore", "var3", 32),
    ("uk14-s", "bfs", "var4", 64),
    ("uk07-s", "pr", "var3", 8), ("uk07-s", "pr", "var4", 8),
)
#: ... Lux on the large graphs, with memory enforced
OOM_CELLS = tuple((ds, "pr", "lux", 64) for ds in LARGE)
#: ... whose partitioning is measured too
PARTITION_CELLS = (("twitter50-s", "sssp", "CVC-sync", 32),
                   ("twitter50-s", "sssp", "IEC-sync", 32))


def claims_rows(dataset: str, bench: str) -> dict:
    def system(name):
        if name.endswith("-sync"):
            return SystemSpec.dirgl(policy=name[:-5].lower(), execution="sync")
        return SystemSpec.variant(name)

    specs = [
        CellSpec(key=c, system=system(c[2]), benchmark=bench, dataset=dataset,
                 num_gpus=c[3], check_memory=c in OOM_CELLS)
        for c in CLAIM_CELLS + OOM_CELLS if c[:2] == (dataset, bench)
    ] + [
        PartitionStatsSpec(key=c, dataset=dataset, policy=c[2][:-5].lower(),
                           num_gpus=c[3])
        for c in PARTITION_CELLS if c[:2] == (dataset, bench)
    ]
    rec = Recorder()
    rec.map(specs)
    return cell_rows("claims", rec.ran)


def context(ds) -> RunContext:
    return RunContext(num_global_vertices=ds.graph.num_vertices,
                      source=ds.source_vertex, global_out_degrees=ds.graph.out_degrees())


def engine_row(dataset, app, policy, P, engine=BSPEngine, cluster=None, **kw):
    """The set-up every ablation shares: the dataset's graph cut by
    ``policy`` into ``P`` parts, on Bridges unless ``cluster`` says
    otherwise, without memory enforcement."""
    ds = load_dataset(dataset)
    pg = partition(ds.graph, policy, P)
    res = engine(pg, cluster or bridges(P), get_app(app), scale_factor=ds.scale_factor,
                 check_memory=False, **kw).run(context(ds))
    return row(res.stats, crc(res.labels), partition_stats(pg))


HIER_MODES = {"flat": (None, False), "contended": (ContentionConfig(), False),
              "contended+hier": (ContentionConfig(), True)}
#: group -> system -> (policy, P, engine_row keywords)
ABLATIONS = {
    # the conclusion's proposed throttle: BASP partitions linger before a
    # local round so straggler messages land in it
    "throttle/uk14-s/bfs": {
        "unthrottled" if w == 0 else f"wait-{w * 1e3:.0f}ms":
            ("iec", 64, dict(engine=BASPEngine, throttle_wait=w))
        for w in (0.0, 2e-3, 1e-2, 5e-2)
    },
    # the same CVC partitions synced with and without the invariants'
    # partner restriction
    "cvc-partners/twitter50-s/sssp": {
        label: ("cvc", 32, dict(comm_config=CommConfig(invariant_filtering=f)))
        for label, f in (("restricted", True), ("all-pairs", False))
    },
    # Section V-C's two proposals: comm/compute overlap, GPUDirect
    "gpudirect/twitter50-s/sssp": {
        label: ("cvc", 32, dict(cluster=bridges(32, gpudirect=direct),
                                overlap_comm=overlap))
        for label, direct, overlap in (
            ("host-routed", False, 0.0), ("overlap-90", False, 0.9),
            ("overlap-100", False, 1.0), ("gpudirect", True, 0.0),
            ("gpudirect+overlap-90", True, 0.9),
        )
    },
    # shared host links, and two-level (intra-host -> network) sync
    "hier-contention/twitter50-s/bfs": {
        f"{p}-{mode}": (p.lower(), 64, dict(
            cluster=bridges(64, contention=contention),
            comm_config=CommConfig(hierarchical=hier)))
        for p in ("CVC", "OEC") for mode, (contention, hier) in HIER_MODES.items()
    },
    # CVC's two invariants priced apart: jagged keeps only the row one
    "jagged/twitter50-s/sssp": {p.upper(): (p, 32, {}) for p in ("cvc", "jagged", "iec")},
    # the introduction's 16-GPU single host against host-routed Bridges
    "dgx2/twitter50-s/sssp": {
        f"{p}-{fabric}": (p.lower(), 16, dict(cluster=make(16)))
        for fabric, make in (("bridges", bridges), ("dgx2", dgx2)) for p in POLICIES
    },
}


def ablation_rows(group: str) -> dict:
    _, dataset, app = group.split("/")
    return {f"{group}/{system}/{P}": engine_row(dataset, app, policy, P, **kw)
            for system, (policy, P, kw) in ABLATIONS[group].items()}


def memoization_rows() -> dict:
    """Memoized exchange orders against Lux's explicit global IDs, under AS."""
    rows = {}
    for label, memoize in (("memoized", True), ("explicit-ids", False)):
        fw = DIrGL(policy="iec", update_only=False, execution="sync")
        fw.comm_config = CommConfig(update_only=False, memoize_addresses=memoize)
        res = fw.run("cc", load_dataset("twitter50-s"), 16, check_memory=False)
        rows[f"memoization/twitter50-s/cc/{label}/16"] = row(res.stats, crc(res.labels))
    return rows


def ext_app_rows(app: str) -> dict:
    """bc, tc and k-truss on orkut-s at 16 GPUs; bc and tc must match their
    references to be kept, and a tc or k-truss CRC is of the answer."""
    ds = load_dataset("orkut-s")
    sym, rows = ds.symmetric(), {}
    reference = {"bc": lambda: reference_bc_single_source(ds.graph, ds.source_vertex),
                 "tc": lambda: reference_triangle_count(sym)}.get(app, lambda: None)()
    for p in POLICIES:
        if app == "bc":
            answer, stats = run_bc(partition(ds.graph, p.lower(), 16), bridges(16),
                                   context(ds), scale_factor=ds.scale_factor)
            assert np.allclose(answer, reference)
        elif app == "tc":
            count, stats = count_triangles(
                partition(sym, p.lower(), 16), bridges(16), scale_factor=ds.scale_factor)
            assert count == reference
            answer = np.int64(count)
        else:
            kt = ktruss(partition(sym, p.lower(), 16), bridges(16), 8,
                        scale_factor=ds.scale_factor)
            stats, alive = kt.stats, kt.alive
            answer = np.sort(kt.src[alive].astype(np.int64) * sym.num_vertices + kt.dst[alive])
        rows[f"ext-apps/orkut-s/{app}/{p}/16"] = row(stats, crc(answer))
    return rows


def _own_cache(rows_fn):
    """``rows_fn`` on a partition cache of its own: a group's rows cannot
    depend on what ran before it, and the cuts of nine inputs at up to 64
    partitions are not all held at once (the process-wide cache would take
    a record to 4.2 GiB RSS)."""
    def rows():
        found = get_cache()
        set_cache(PartitionCache())
        try:
            return rows_fn()
        finally:
            set_cache(found)

    return rows


GROUPS = {g: _own_cache(fn) for g, fn in {
    "table1": table1_rows,
    **{g: partial(experiment_rows, *g.split("/"))
       for e in ("table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6",
                 "fig7", "fig8", "fig9")
       for g in experiment_groups(e)},
    "microbench": microbench_rows,
    **{f"claims/{ds}/{b}": partial(claims_rows, ds, b)
       for ds, b, *_ in CLAIM_CELLS + OOM_CELLS},
    **{g: partial(ablation_rows, g) for g in ABLATIONS},
    "memoization/twitter50-s/cc": memoization_rows,
    **{f"ext-apps/orkut-s/{a}": partial(ext_app_rows, a) for a in ("bc", "tc", "ktruss")},
}.items()}


# --------------------------------------------------------------------------- #
# claims over the recorded rows
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rows():
    return golden.recorded("study")


def failure(rows, key) -> str:
    assert key in rows, f"no study row {key!r}"
    return rows[key]["failure_kind"]


def ran(rows, key) -> dict:
    """The row of a cell that ran; a missing or failed one fails the claim."""
    assert not failure(rows, key), f"study row {key!r}: {rows[key]['failure_kind']}"
    return rows[key]


def t(rows, key) -> float:
    return ran(rows, key)["execution_time"]


class TestCVCWinsAtScale:
    """Claim 1 (abstract): CVC is critical to scale out; it wins at >= 16
    GPUs because its grid bounds every partition's partners."""

    @pytest.mark.parametrize("bench", ["sssp", "cc", "pr", "bfs"])
    def test_cvc_best_on_social_graphs_at_32(self, rows, bench):
        times = {p: t(rows, f"claims/twitter50-s/{bench}/{p}-sync/32") for p in POLICIES}
        assert min(times, key=times.get) == "CVC", times

    def test_edge_cut_competitive_at_2_gpus(self, rows):
        """Unlike CPU studies' conclusion, only at small scale."""
        cvc, iec = (t(rows, f"claims/twitter50-s/sssp/{p}-sync/2") for p in ("CVC", "IEC"))
        assert iec <= cvc * 1.1

    def test_cvc_gain_grows_with_scale(self, rows):
        gains = [t(rows, f"claims/twitter50-s/sssp/IEC-sync/{n}")
                 / t(rows, f"claims/twitter50-s/sssp/CVC-sync/{n}") for n in (4, 16, 64)]
        assert gains[-1] > gains[0] and gains[-1] > 1.2

    def test_cvc_fewer_communication_partners_at_32(self, rows):
        cvc, iec = (ran(rows, f"claims/twitter50-s/sssp/{p}-sync/32")["max_comm_partners"]
                    for p in ("CVC", "IEC"))
        assert cvc < iec

    def test_cvc_fastest_at_64_under_async(self, rows):
        """Figure 7, bfs and cc on the social graphs (async sssp/pr and
        uk07-s are EXPERIMENTS.md's documented deviations)."""
        wins = 0
        for ds in ("twitter50-s", "friendster-s"):
            for bench in ("bfs", "cc"):
                keys = {s: f"fig7/{ds}/{bench}/{s}/64" for s in (*POLICIES, "Lux")}
                times = {s: t(rows, k) for s, k in keys.items() if not failure(rows, k)}
                wins += min(times, key=times.get) == "CVC"
        assert wins >= 3, wins

    def test_cvc_cc_beats_iec_at_32_under_async(self, rows):
        for ds in ("twitter50-s", "friendster-s"):  # Figure 8
            assert t(rows, f"fig8/{ds}/cc/CVC/32") < t(rows, f"fig8/{ds}/cc/IEC/32"), ds

    def test_partner_restriction_is_where_cvc_wins(self, rows):
        on, off = (ran(rows, f"cvc-partners/twitter50-s/sssp/{m}/32")
                   for m in ("restricted", "all-pairs"))
        assert on["num_messages"] < off["num_messages"]
        assert on["execution_time"] <= off["execution_time"]

    def test_each_structural_invariant_pays(self, rows):
        """One (jagged) beats none (IEC); both (CVC) within 15 % of one."""
        cvc, jag, iec = (t(rows, f"jagged/twitter50-s/sssp/{p}/32")
                         for p in ("CVC", "JAGGED", "IEC"))
        assert jag < iec and cvc <= jag * 1.15

    def test_two_level_sync_folds_cross_host_messages(self, rows):
        """Contention re-times the same traffic; aggregation keeps the
        labels, folds >= 1.5x of the cross-host messages at <= 1.5x the
        time, and widens CVC's margin over OEC, whose partners both tax."""
        r = {(p, m): ran(rows, f"hier-contention/twitter50-s/bfs/{p}-{m}/64")
             for p in ("CVC", "OEC") for m in HIER_MODES}
        for p in ("CVC", "OEC"):
            flat, cont, hier = (r[p, m] for m in HIER_MODES)
            assert flat["labels_crc"] == cont["labels_crc"] == hier["labels_crc"]
            assert cont["num_messages"] == flat["num_messages"]
            assert cont["execution_time"] >= flat["execution_time"]
            assert hier["inter_host_messages"] * 1.5 <= flat["inter_host_messages"]
            assert hier["comm_volume_bytes"] < flat["comm_volume_bytes"]
            assert hier["execution_time"] <= flat["execution_time"] * 1.5
        margin = {m: r["OEC", m]["execution_time"] / r["CVC", m]["execution_time"]
                  for m in HIER_MODES}
        assert min(margin.values()) > 1 and margin["contended+hier"] > margin["flat"]

    def test_cvc_wins_on_a_16_gpu_host_routed_fabric(self, rows):
        times = {p: t(rows, f"dgx2/twitter50-s/sssp/{p}-bridges/16") for p in POLICIES}
        assert min(times, key=times.get) == "CVC", times


class TestLuxVsVar1:
    """Claim 2: Var1 outperforms Lux; Lux does not scale."""

    @pytest.mark.parametrize("bench", ["cc", "pr"])
    def test_var1_beats_lux(self, rows, bench):
        assert (t(rows, f"fig5/twitter50-s/{bench}/d-irgl(var1)/4")
                <= t(rows, f"fig5/twitter50-s/{bench}/lux/4"))

    def test_lux_volume_larger(self, rows):
        """No update tracking + explicit global IDs => more bytes."""
        lux = ran(rows, "fig5/twitter50-s/cc/lux/4")["comm_volume_bytes"]
        assert lux > 2 * ran(rows, "claims/twitter50-s/cc/var4/4")["comm_volume_bytes"]

    def test_figure3_var1_beats_lux_and_var4_scales(self, rows):
        """Var1 <= Lux wherever both ran; Var4's last point beats its
        first that ran (cc OOMs on 2 GPUs, a missing point as in the
        paper's plots)."""
        for ds in MEDIUM:
            for bench in ("bfs", "sssp", "cc"):
                k = {(s, n): f"fig3/{ds}/{bench}/{s}/{n}"
                     for s in ("var1", "var4", "lux") for n in (2, 8, 32)}
                for n in (2, 8, 32):
                    if not failure(rows, k["var1", n]) and not failure(rows, k["lux", n]):
                        assert t(rows, k["var1", n]) <= t(rows, k["lux", n]) * 1.05
                var4 = [t(rows, k["var4", n]) for n in (2, 8, 32)
                        if not failure(rows, k["var4", n])]
                assert len(var4) >= 2 and var4[-1] < var4[0], (ds, bench)

    def test_lux_compute_similar_volume_larger(self, rows):
        """Figure 5: both balance within, not across, thread blocks."""
        for ds in ("twitter50-s", "friendster-s"):
            lux, var1 = (ran(rows, f"fig5/{ds}/pr/{s}/4") for s in ("lux", "d-irgl(var1)"))
            assert 0.5 < lux["max_compute"] / var1["max_compute"] < 2.0, ds
            assert lux["comm_volume_bytes"] > 1.5 * var1["comm_volume_bytes"], ds

    def test_explicit_ids_inflate_volume(self, rows):
        """Lux's wire format against Gluon's memoized exchange orders."""
        memo, ids = (ran(rows, f"memoization/twitter50-s/cc/{m}/16")["comm_volume_bytes"]
                     for m in ("memoized", "explicit-ids"))
        assert ids > 1.5 * memo


#: where uk07-s@32's Var1-3 cells are recorded, per benchmark
UK07_AT_32 = {"bfs": "fig4", "pr": "fig4", "sssp": "fig4", "cc": "claims", "kcore": "claims"}


class TestALBvsTWC:
    """Claim 3: ALB matters exactly for pull-pagerank on huge-in-degree
    inputs."""

    def test_alb_wins_on_pull_pagerank(self, rows):
        var1, var2 = (ran(rows, f"fig4/uk07-s/pr/{v}/32") for v in ("var1", "var2"))
        assert var2["execution_time"] < 0.7 * var1["execution_time"]
        assert var2["max_compute"] < var1["max_compute"]

    @pytest.mark.parametrize("bench", ["bfs", "sssp", "cc"])
    def test_tied_on_push_benchmarks(self, rows, bench):
        """Push apps read bounded out-degrees (Section V-B2)."""
        at = UK07_AT_32[bench]
        ratio = (t(rows, f"{at}/uk07-s/{bench}/var1/32")
                 / t(rows, f"{at}/uk07-s/{bench}/var2/32"))
        assert 0.8 < ratio < 1.35, ratio

    @pytest.mark.parametrize("figure, inputs, P", [("fig4", MEDIUM, 32),
                                                   ("fig6", ["clueweb12-s", "uk14-s"], 64)])
    def test_alb_cuts_pr_compute(self, rows, figure, inputs, P):
        """Figures 4 and 6: on every medium input, and at 64 GPUs on the
        most in-skewed crawls."""
        for ds in inputs:
            var1, var2 = (ran(rows, f"{figure}/{ds}/pr/{v}/{P}")["max_compute"]
                          for v in ("var1", "var2"))
            assert var2 < var1, ds


class TestUOvsAS:
    """Claim 4: UO reduces communication volume vs AS; below a threshold
    extracting the updates does not pay."""

    @pytest.mark.parametrize("bench", ["bfs", "cc", "kcore", "pr", "sssp"])
    def test_uo_volume_lower(self, rows, bench):
        as_, uo = (ran(rows, f"{UK07_AT_32[bench]}/uk07-s/{bench}/{v}/32")["comm_volume_bytes"]
                   for v in ("var2", "var3"))
        assert uo < as_

    def test_uo_big_win_on_sparse_update_apps(self, rows):
        as_, uo = (ran(rows, f"fig4/uk07-s/sssp/{v}/32")["comm_volume_bytes"]
                   for v in ("var2", "var3"))
        assert uo < 0.4 * as_

    def test_uo_pays_extraction_overhead(self, rows):
        """The prefix-scan shows in device time even as volume shrinks."""
        assert ran(rows, "fig4/uk07-s/sssp/var3/32")["device_comm"] > 0

    def test_uo_cuts_sssp_volume_on_medium_graphs(self, rows):
        """Figure 4 and the Section V-B3 ablation: UO never adds volume,
        and wins on time for at least one input."""
        wins = 0
        for ds in MEDIUM:
            as_, uo = (ran(rows, f"fig4/{ds}/sssp/{v}/32") for v in ("var2", "var3"))
            assert uo["comm_volume_bytes"] < as_["comm_volume_bytes"], ds
            wins += uo["execution_time"] < as_["execution_time"]
        assert wins >= 1

    def test_microbenchmark_locates_the_threshold(self, rows):
        """UO wins at sparse updates, loses at full ones, and pays to
        higher densities on longer exchange lists."""
        sparse, full = rows["microbench/curve/0.001"], rows["microbench/curve/1.0"]
        assert sparse["uo_seconds"] < sparse["as_seconds"]
        assert full["uo_seconds"] >= full["as_seconds"]
        assert rows["microbench/crossover/200000"] >= rows["microbench/crossover/2000"]


class TestSyncVsAsync:
    """Claim 5: Async usually helps, but not always."""

    def test_async_wins_usually(self, rows):
        cases = ["fig4/uk07-s/sssp", "fig4/twitter50-s/sssp", "fig3/twitter50-s/cc"]
        assert sum(t(rows, f"{c}/var4/32") <= t(rows, f"{c}/var3/32") for c in cases) >= 2

    def test_async_causes_redundant_work(self, rows):
        """Stale reads on the long-tail crawl (the paper's bfs/uk14)."""
        v3, v4 = ran(rows, "fig6/uk14-s/bfs/var3/64"), ran(rows, "claims/uk14-s/bfs/var4/64")
        assert v4["work_items"] > 1.2 * v3["work_items"]
        assert v4["local_rounds_max"] > v3["rounds"]

    def test_async_not_always_better(self, rows):
        """pr's fine-grained propagation makes BASP's extra local rounds a
        net loss on the crawl (the paper's instance was bfs/uk14)."""
        assert t(rows, "claims/uk07-s/pr/var4/8") > t(rows, "claims/uk07-s/pr/var3/8")

    def test_throttling_trades_wait_for_redundant_work(self, rows):
        """The conclusion's throttle does less work in fewer local rounds."""
        free, held = (ran(rows, f"throttle/uk14-s/bfs/{m}/64")
                      for m in ("unthrottled", "wait-50ms"))
        assert held["work_items"] < free["work_items"]
        assert held["local_rounds_max"] < free["local_rounds_max"]


class TestStaticBalanceAndMemory:
    """Claim 6: static balance ~ memory balance; OOM from static
    imbalance."""

    def test_static_correlates_with_memory(self, rows):
        """Table IV: close agreement for >= 3 of 4 policies (IEC's hub
        mirrors are a small-scale artifact, EXPERIMENTS.md)."""
        close = 0
        for p in POLICIES:
            r = ran(rows, f"table4/uk14-s/bfs/{p}/64")
            close += abs(r["memory_balance"] - r["static_balance"]) < 0.05
        assert close >= 3

    def test_static_imbalance_causes_oom_on_large(self, rows):
        """Figure 9: the edge-cuts OOM on cc/uk14-s, while the vertex-cuts
        run the identical configuration (CVC barely: ~15.6 of 16 GB)."""
        for p in ("IEC", "OEC"):
            assert failure(rows, f"fig9/uk14-s/cc/{p}/64") == "oom", p
        assert ran(rows, "fig9/uk14-s/cc/CVC/64")["memory_max_bytes"] < 16 * GIB
        ran(rows, "fig9/uk14-s/cc/HVC/64")

    def test_lux_cannot_run_any_large_graph(self, rows):
        for ds in LARGE:
            assert failure(rows, f"claims/{ds}/pr/lux/64") == "oom", ds

    def test_dirgl_runs_every_large_graph(self, rows):
        for ds in LARGE:
            assert t(rows, f"fig9/{ds}/bfs/CVC/64") > 0

    def test_memory_tracks_static_closer_than_dynamic(self, rows):
        """Table IV: static balance predicts memory, not dynamic, balance."""
        cells = [ran(rows, f"table4/{ds}/{b}/{p}/{n}")
                 for ds, n in (("uk07-s", 32), ("uk14-s", 64))
                 for b in ("bfs", "cc", "kcore", "pr", "sssp") for p in POLICIES]
        static, dynamic, memory = (np.array([r[c] for r in cells]) for c in (
            "static_balance", "dynamic_balance", "memory_balance"))
        assert np.abs(memory - static).mean() < np.abs(dynamic - static).mean()


class TestSingleHostFrameworks:
    """Claim 7 (Tables II, III): D-IrGL runs every single-host cell and
    needs the least memory; Lux lacks bfs/sssp, allocates a constant pool."""

    def test_dirgl_runs_every_cell_lux_lacks_bfs_and_sssp(self, rows):
        for ds in SMALL:
            for bench in ("bfs", "cc", "pr", "sssp"):
                assert any(not failure(rows, f"table2/{ds}/{bench}/d-irgl-{p.lower()}/{n}")
                           for p in POLICIES for n in (2, 6)), (ds, bench)
                if bench in ("bfs", "sssp"):
                    assert {failure(rows, f"table2/{ds}/{bench}/lux/{n}")
                            for n in (2, 6)} == {"unsupported"}

    def test_dirgl_uses_least_memory(self, rows):
        def gb(fw, ds):
            return ran(rows, f"table3/{ds}/cc/{fw}/6")["memory_max_bytes"] / GIB

        for ds in SMALL:
            assert gb("d-irgl", ds) < min(gb("groute", ds), gb("gunrock", ds)), ds
            assert abs(gb("lux", ds) - 5.85) < 0.01, ds
        # on rmat23-s partition imbalance flips Groute and Gunrock
        for ds in ("orkut-s", "indochina04-s"):
            assert gb("groute", ds) < gb("gunrock", ds), ds

    def test_table1_lists_every_input(self, rows):
        assert {k for k in rows if k.startswith("table1/")} == {
            f"table1/{ds}" for ds in dataset_names()}


class TestBeyondThePaper:
    """What the paper proposes or motivates but does not measure."""

    def test_gpudirect_and_overlap_cut_host_routed_cost(self, rows):
        """Section V-C: overlap hides comm behind compute — never behind
        more compute than exists — and GPUDirect removes the host legs."""
        r = {m: ran(rows, f"gpudirect/twitter50-s/sssp/{m}/32")
             for m in ABLATIONS["gpudirect/twitter50-s/sssp"]}
        base, time = r["host-routed"], {m: x["execution_time"] for m, x in r.items()}
        assert time["gpudirect"] < time["host-routed"]
        assert r["gpudirect"]["device_comm"] < base["device_comm"]
        assert time["gpudirect+overlap-90"] <= time["gpudirect"] + 1e-9
        assert time["overlap-100"] <= time["overlap-90"] + 1e-9 <= time["host-routed"] + 1e-9
        assert time["host-routed"] - time["overlap-100"] <= base["max_compute"] + 1e-9

    def test_nvswitch_compresses_the_policy_spread(self, rows):
        """The introduction's DGX-2: every policy runs faster behind
        NVSwitch, and the best-to-worst spread does not grow."""
        host, nv = ({p: t(rows, f"dgx2/twitter50-s/sssp/{p}-{f}/16") for p in POLICIES}
                    for f in ("bridges", "dgx2"))
        assert max(nv.values()) / min(nv.values()) < max(host.values()) / min(host.values())
        assert all(nv[p] < host[p] for p in POLICIES)

    def test_extension_answers_are_policy_independent(self, rows):
        """bc, tc and k-truss ran under every policy (bc and tc matched
        their references when recorded); tc's and k-truss's answers are
        one answer."""
        for p in POLICIES:
            ran(rows, f"ext-apps/orkut-s/bc/{p}/16")
        for app in ("tc", "ktruss"):
            crcs = {ran(rows, f"ext-apps/orkut-s/{app}/{p}/16")["labels_crc"]
                    for p in POLICIES}
            assert len(crcs) == 1, (app, crcs)


# --------------------------------------------------------------------------- #
# the rows the claims read are the rows the code computes
# --------------------------------------------------------------------------- #
#: the groups EXPERIMENTS.md's scorecard names; fig9/uk14-s/cc holds Var4
#: (BASP) HVC cells, the kind whose drift went unnoticed from 9496c2b on
TIER1_GROUPS = (
    "claims/twitter50-s/sssp", "fig9/uk14-s/cc", "fig5/twitter50-s/cc",
    "claims/uk07-s/cc", "fig4/twitter50-s/sssp", "microbench",
    "claims/uk14-s/bfs", "table3/orkut-s/cc", "gpudirect/twitter50-s/sssp",
)


@pytest.mark.parametrize("group", TIER1_GROUPS)
def test_study_matches_golden(group):
    golden.check("study", group)


def _swap_cvc_iec(r):
    cvc, iec = r["claims/twitter50-s/cc/CVC-sync/32"], r["claims/twitter50-s/cc/IEC-sync/32"]
    cvc["execution_time"], iec["execution_time"] = iec["execution_time"], cvc["execution_time"]


#: case -> (edit to a copy of the rows, the claim it must break)
DOCTORED = {
    "cvc-iec-times-swapped": (
        _swap_cvc_iec,
        lambda r: TestCVCWinsAtScale().test_cvc_best_on_social_graphs_at_32(r, "cc")),
    "uk14-iec-oom-runs": (
        lambda r: r["fig9/uk14-s/cc/IEC/64"].update(r["fig9/uk14-s/cc/CVC/64"]),
        lambda r: TestStaticBalanceAndMemory().test_static_imbalance_causes_oom_on_large(r)),
    "fig4-pr-var2-bar-deleted": (
        lambda r: r.pop("fig4/twitter50-s/pr/var2/32"),
        lambda r: TestALBvsTWC().test_alb_cuts_pr_compute(r, "fig4", MEDIUM, 32)),
}


@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_claims_fail_on_doctored_rows(rows, case):
    """Each claim holds on the recorded rows and fails on a copy with one
    cell moved, turned from an OOM into a run, or deleted."""
    doctor, claim = DOCTORED[case]
    claim(rows)
    doctored = copy.deepcopy(rows)
    doctor(doctored)
    with pytest.raises(AssertionError):
        claim(doctored)

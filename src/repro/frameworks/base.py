"""Shared framework-facade machinery.

A facade binds the generic engine stack to one real system's fixed choices:
partitioning policy, load balancer, communication optimizations, execution
model, memory profile, and algorithm variants.  ``run`` handles everything a
user of the real framework's CLI would get: dataset selection (symmetrized
input for cc/kcore), source selection (max out-degree), partitioning,
memory admission, execution, and stats labeling.
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from repro.apps import get_app
from repro.comm.gluon import CommConfig
from repro.engine import BASPEngine, BSPEngine, RunContext, RunResult
from repro.errors import UnsupportedFeatureError
from repro.generators.datasets import Dataset
from repro.hw.cluster import Cluster, bridges, tuxedo
from repro.hw.memory import MemoryProfile, DIRGL_PROFILE
from repro.partition import partition as make_partition

__all__ = ["Framework"]


class Framework(ABC):
    """Base facade.  Subclasses pin the class attributes."""

    name: str = ""
    #: policies the real system supports
    supported_policies: tuple[str, ...] = ()
    #: app-name remapping (e.g. Gunrock's bfs is direction-optimizing)
    app_aliases: dict[str, str] = {}
    #: apps the real system lacks or that were broken in the study
    unsupported_apps: tuple[str, ...] = ()
    #: can it span hosts?
    multi_host: bool = True
    load_balancer: str = "alb"
    comm_config: CommConfig = CommConfig()
    execution: str = "sync"  # "sync" | "async"
    memory_profile: MemoryProfile = DIRGL_PROFILE

    def __init__(self, policy: str | None = None):
        if policy is None:
            policy = self.supported_policies[0]
        if policy not in self.supported_policies:
            raise UnsupportedFeatureError(
                f"{self.name} does not support the {policy!r} policy "
                f"(supported: {self.supported_policies})"
            )
        self.policy = policy

    # ------------------------------------------------------------------ #
    def make_cluster(self, num_gpus: int, platform: str | Cluster) -> Cluster:
        """Resolve a platform name (or pass a :class:`Cluster` through).

        A ``:contended`` suffix (e.g. ``"bridges:contended"``) attaches
        the default shared-resource :class:`~repro.hw.contention.\
        ContentionConfig`, so string-based cell specs and sweep drivers
        can opt into contention pricing without constructing clusters.
        """
        contended = False
        if isinstance(platform, str) and ":" in platform:
            base_name, _, flag = platform.partition(":")
            if flag != "contended":
                raise UnsupportedFeatureError(
                    f"unknown platform flag {flag!r} in {platform!r}"
                )
            platform, contended = base_name, True
        if isinstance(platform, Cluster):
            cluster = platform
        elif platform == "bridges":
            cluster = bridges(num_gpus)
        elif platform == "tuxedo":
            cluster = tuxedo(num_gpus)
        elif platform == "dgx2":
            from repro.hw.cluster import dgx2

            cluster = dgx2(num_gpus)
        else:
            raise UnsupportedFeatureError(f"unknown platform {platform!r}")
        if contended:
            from dataclasses import replace

            from repro.hw.contention import ContentionConfig

            cluster = replace(cluster, contention=ContentionConfig())
        if not self.multi_host and cluster.num_hosts > 1:
            raise UnsupportedFeatureError(
                f"{self.name} supports only single-host multi-GPU platforms"
            )
        return cluster

    def resolve_app(self, app_name: str):
        if app_name in self.unsupported_apps:
            raise UnsupportedFeatureError(
                f"{self.name} cannot run {app_name!r} "
                "(missing, incorrect, or crashed in the study)"
            )
        return get_app(self.app_aliases.get(app_name, app_name))

    def make_context(self, dataset: Dataset, app, **overrides) -> RunContext:
        graph = dataset.graph
        defaults = dict(
            num_global_vertices=graph.num_vertices,
            source=dataset.source_vertex,
            global_out_degrees=graph.out_degrees(),
        )
        if app.needs_symmetric:
            # only the apps that run on the symmetrized view (kcore, mis)
            # read its degrees; asking for them costs everyone else a
            # make_undirected.  symmetric_degrees(), not
            # symmetric().out_degrees(): store-backed datasets stream it
            # in O(|V|) resident memory
            sym_deg = dataset.symmetric_degrees()
            defaults.update(
                # k at the median degree: deep peeling cascades on every
                # input (the paper runs kcore to convergence on all of them)
                k=max(2, int(np.median(sym_deg))),
                global_degrees=sym_deg,
            )
        defaults.update(overrides)
        return RunContext(**defaults)

    # ------------------------------------------------------------------ #
    def run(
        self,
        app_name: str,
        dataset: Dataset,
        num_gpus: int,
        platform: str | Cluster = "bridges",
        check_memory: bool = True,
        engine_executor: str = "serial",
        fault_plan=None,
        **ctx_overrides,
    ) -> RunResult:
        """Run one benchmark the way this framework would.

        ``engine_executor`` selects the engine's compute-phase dispatch
        (``"serial"`` or ``"threads"``); results are bit-identical either
        way (see the engine docstrings).  ``fault_plan`` (a
        :class:`repro.engine.faults.FaultPlan`) injects deterministic
        simulated crashes.  The run records into the ambient tracer
        (``with repro.obs.use_tracer(t):``).

        Raises
        ------
        UnsupportedFeatureError
            for apps/policies/platforms the real system lacks.
        SimulatedOOMError
            when a partition exceeds GPU memory at paper scale — recorded
            by the study drivers as a missing data point.
        SimulatedCrashError
            when the fault plan fires — the study's "crashed" points.
        """
        app = self.resolve_app(app_name)
        cluster = self.make_cluster(num_gpus, platform)
        graph = dataset.symmetric() if app.needs_symmetric else dataset.graph
        if app.needs_weights and not graph.has_weights:
            raise UnsupportedFeatureError(
                f"{app_name} needs edge weights; dataset {dataset.name!r} has none"
            )
        pg = make_partition(graph, self.policy, num_gpus)
        ctx = self.make_context(dataset, app, **ctx_overrides)

        engine_cls = (
            BASPEngine
            if (self.execution == "async" and app.async_capable)
            else BSPEngine
        )
        engine = engine_cls(
            pg,
            cluster,
            app,
            comm_config=self.comm_config,
            balancer=self.load_balancer,
            scale_factor=dataset.scale_factor,
            memory_profile=self.memory_profile,
            check_memory=check_memory,
            executor=engine_executor,
            fault_plan=fault_plan,
        )
        result = engine.run(ctx)
        result.stats.benchmark = app_name
        result.stats.dataset = dataset.name
        result.stats.variant = self.variant_label()
        return result

    def variant_label(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name} policy={self.policy}>"

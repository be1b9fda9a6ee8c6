"""The GNN placement study (``repro-study gnn``).

Sweeps the :class:`~repro.gnnflow.workload.GNNFlow` feature-gather
workload over the seeded fuzz-shape suite x D-IrGL's four partition
policies x three placement treatments:

``plain``
    no feature buffer — every gathered vertex pays a full
    host->device feature load (the D-IrGL baseline: partition policy is
    the *only* placement lever);
``cache``
    a PaGraph-style partition-local LRU buffer holding half the local
    vertices, pre-warmed with the hottest (highest in-degree) ones;
``cache+local``
    the same buffer plus locality-aware neighbor sampling, which
    prefers buffer-resident neighbors when a list must be subsampled.

All cells run on the contended platform so feature loads queue on the
``pcie_up``/``staging`` resources alongside sync traffic.  The report
is deterministic and byte-identical across ``--jobs``; the
``bench_regression.py --only gnn`` gate pins it against
``benchmarks/BENCH_gnn.json`` and requires caching to cut priced H2D
feature bytes by at least :data:`H2D_REDUCTION_GATE` x on the
:data:`GNN_GATE_SHAPE` suite shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.gnnflow.workload import GNNFlowConfig
from repro.runtime.cells import CellSpec, SystemSpec
from repro.runtime.sweep import run_cells

__all__ = [
    "GNN_GATE_SHAPE",
    "GNN_PLACEMENTS",
    "GNN_POLICIES",
    "GNN_SHAPES",
    "GNN_SEED",
    "H2D_REDUCTION_GATE",
    "GnnReport",
    "GnnRow",
    "evaluate_gnn",
    "gnn_dataset",
    "gnn_study",
]

#: the seeded gate suite — same structural families the advisor uses.
GNN_SHAPES = ("powerlaw", "rmat", "smallworld", "star", "complete")
GNN_SEED = 7

#: D-IrGL's policy axis: caching composes with, not replaces, policy.
GNN_POLICIES = ("iec", "oec", "hvc", "cvc")

#: placement treatments (name -> GNNFlowConfig overrides), in report order.
GNN_PLACEMENTS = (
    ("plain", {"cache_fraction": 0.0}),
    ("cache", {"cache_fraction": 0.5}),
    ("cache+local", {"cache_fraction": 0.5, "locality_sampling": True}),
)

#: the acceptance gate runs on the heavy-tailed shape, where hot-vertex
#: buffers pay off hardest (ISSUE 10 acceptance criterion).
GNN_GATE_SHAPE = "powerlaw"

#: gate: on GNN_GATE_SHAPE, every policy's ``cache`` cell must move at
#: most 1/2 the H2D feature bytes of its ``plain`` cell.
H2D_REDUCTION_GATE = 2.0

_GNN_PLATFORM = "bridges:contended"
_GNN_GPUS = 4


def gnn_dataset(shape: str, seed: int = GNN_SEED) -> str:
    """The ``fuzz:`` dataset name for one suite shape."""
    return f"fuzz:{shape}:{seed}"


def base_config(seed: int = GNN_SEED) -> GNNFlowConfig:
    """The study's shared workload knobs (placement fields default off)."""
    # fanouts are sized to the tiny fuzz shapes (<= 40 vertices, local
    # out-degrees of 1-4 after 4-way partitioning): (2, 2) is small
    # enough that neighbor lists actually get subsampled, so the
    # locality-aware treatment has real choices to make.
    return GNNFlowConfig(
        feature_dim=32,
        fanout=(2, 2),
        minibatch=16,
        num_rounds=6,
        seed=seed,
    )


@dataclass(frozen=True)
class GnnRow:
    """One (shape, policy, placement) measurement."""

    shape: str
    policy: str
    placement: str
    h2d_bytes: float
    cache_hits: int
    cache_misses: int
    hit_rate: float
    comm_bytes: float
    execution_time: float
    rounds: int
    labels_crc: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "GnnRow":
        return cls(**d)


@dataclass
class GnnReport:
    """The full placement study, JSON round-trippable for the gate."""

    seed: int
    num_gpus: int
    platform: str
    rows: list

    def row(self, shape: str, policy: str, placement: str) -> GnnRow:
        for r in self.rows:
            if (r.shape, r.policy, r.placement) == (shape, policy, placement):
                return r
        raise KeyError(f"no gnn row for {(shape, policy, placement)!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "num_gpus": self.num_gpus,
                "platform": self.platform,
                "reduction_gate": H2D_REDUCTION_GATE,
                "rows": [r.to_dict() for r in self.rows],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GnnReport":
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            num_gpus=int(data["num_gpus"]),
            platform=str(data["platform"]),
            rows=[GnnRow.from_dict(r) for r in data["rows"]],
        )


def _specs(shapes, policies, seed: int) -> list[CellSpec]:
    base = base_config(seed)
    specs = []
    for shape in shapes:
        for policy in policies:
            for pname, overrides in GNN_PLACEMENTS:
                cfg = replace(base, **overrides)
                specs.append(
                    CellSpec(
                        key=(shape, policy, pname),
                        system=SystemSpec.dirgl(policy=policy, execution="sync"),
                        benchmark="gnnflow",
                        dataset=gnn_dataset(shape, seed),
                        num_gpus=_GNN_GPUS,
                        platform=_GNN_PLATFORM,
                        check_memory=False,
                        ctx_overrides=(("payload", cfg),),
                    )
                )
    return specs


def gnn_study(
    shapes=GNN_SHAPES,
    policies=GNN_POLICIES,
    seed: int = GNN_SEED,
    executor=None,
) -> GnnReport:
    """Run the placement sweep; deterministic for a fixed seed.

    ``executor`` is an optional :class:`~repro.runtime.sweep.
    SweepExecutor`; rows always come back in spec order, so the report
    is byte-identical whether cells run serially or across workers.
    """
    specs = _specs(shapes, policies, seed)
    rows = []
    for spec, out in zip(specs, run_cells(specs, executor)):
        out.raise_failure()  # no missing points here: a failed cell is an error
        st = out.stats
        accesses = st.feature_cache_hits + st.feature_cache_misses
        rows.append(
            GnnRow(
                shape=spec.key[0],
                policy=spec.key[1],
                placement=spec.key[2],
                h2d_bytes=float(st.feature_h2d_bytes),
                cache_hits=int(st.feature_cache_hits),
                cache_misses=int(st.feature_cache_misses),
                hit_rate=float(st.feature_cache_hits) / max(accesses, 1),
                comm_bytes=float(st.comm_volume_bytes),
                execution_time=float(st.execution_time),
                rounds=int(st.rounds),
                labels_crc=int(out.labels_crc),
            )
        )
    return GnnReport(
        seed=seed, num_gpus=_GNN_GPUS, platform=_GNN_PLATFORM, rows=rows
    )


def evaluate_gnn(
    report: GnnReport,
    reduction_gate: float = H2D_REDUCTION_GATE,
) -> list[str]:
    """Structural gate violations for one study report (empty = pass)."""
    violations: list[str] = []
    shapes = sorted({r.shape for r in report.rows})
    policies = sorted({r.policy for r in report.rows})

    for shape in shapes:
        for policy in policies:
            try:
                plain = report.row(shape, policy, "plain")
                cache = report.row(shape, policy, "cache")
                local = report.row(shape, policy, "cache+local")
            except KeyError as e:
                violations.append(str(e))
                continue
            # the buffer may never *add* H2D traffic
            for treated in (cache, local):
                if treated.h2d_bytes > plain.h2d_bytes:
                    violations.append(
                        f"{shape}/{policy}/{treated.placement}: caching "
                        f"increased H2D bytes ({treated.h2d_bytes:.0f} > "
                        f"{plain.h2d_bytes:.0f})"
                    )
            if plain.cache_hits != 0:
                violations.append(
                    f"{shape}/{policy}/plain: uncached run recorded "
                    f"{plain.cache_hits} buffer hits"
                )
            for r in (plain, cache, local):
                if not 0.0 <= r.hit_rate <= 1.0:
                    violations.append(
                        f"{shape}/{policy}/{r.placement}: hit rate "
                        f"{r.hit_rate} outside [0, 1]"
                    )
            if shape == GNN_GATE_SHAPE:
                if cache.h2d_bytes * reduction_gate > plain.h2d_bytes:
                    ratio = plain.h2d_bytes / max(cache.h2d_bytes, 1e-12)
                    violations.append(
                        f"{shape}/{policy}: caching reduced H2D bytes only "
                        f"{ratio:.2f}x (gate {reduction_gate:.1f}x)"
                    )

    return violations

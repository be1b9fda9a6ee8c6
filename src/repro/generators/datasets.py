"""Dataset registry: scaled stand-ins for the paper's Table I inputs.

Each entry pairs a deterministic generator configuration with the *paper's*
published statistics for the corresponding real input.  After generation we
compute ``scale_factor = paper_edges / generated_edges``; the hardware model
multiplies per-partition footprints and message volumes by this factor so
that memory limits (16 GB P100s) and the GB labels on the figures operate at
paper scale even though the topology is a laptop-sized stand-in.

Category drives experiment selection exactly as in the paper:

* ``small``  — single-host (Tuxedo) experiments, Tables II and III;
* ``medium`` — Bridges strong scaling (Figures 3, 4, 5, 7, 8; Table IV uk07);
* ``large``  — Bridges 64-GPU runs (Figures 6 and 9; Table IV uk14).
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import UnknownDatasetError
from repro.graph.csr import CSRGraph
from repro.graph.transform import add_random_weights, make_undirected
from repro.generators.powerlaw import powerlaw_social
from repro.generators.rmat import rmat
from repro.generators.webcrawl import webcrawl

__all__ = [
    "DatasetSpec",
    "Dataset",
    "DATASETS",
    "dataset_names",
    "fuzz_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class PaperStats:
    """Table I row for the real input (what the paper reports)."""

    num_vertices: float
    num_edges: float
    max_out_degree: int
    max_in_degree: int
    approx_diameter: int
    size_gb: float


@dataclass(frozen=True)
class DatasetSpec:
    """One registered stand-in dataset."""

    name: str
    paper_name: str
    category: str  # small | medium | large
    kind: str  # rmat | social | webcrawl
    generator: Callable[[], CSRGraph]
    paper: PaperStats


@dataclass
class Dataset:
    """A graph to run on — a registry stand-in, a fuzz shape, a store
    container or a served snapshot — with its name, category and
    paper-scale factor."""

    name: str
    category: str  # a registry category, or "store" / "fuzz" / "serve"
    graph: CSRGraph
    scale_factor: float
    _symmetric: Optional[CSRGraph] = field(default=None, repr=False)

    @property
    def source_vertex(self) -> int:
        """The bfs/sssp source: the vertex with the highest out-degree,
        exactly as the paper chooses it."""
        return int(np.argmax(self.graph.out_degrees()))

    def symmetric(self) -> CSRGraph:
        """Symmetrized view used by cc, kcore and mis (cached); its
        out-degrees are the one symmetric degree (kcore's default ``k``,
        ``ctx.global_degrees``), whether the graph was generated or opened
        from a store.

        Topology only (``make_undirected(graph.topology())``): none of
        those apps reads a weight.  Table III does not move, because the
        memory model charges the weights of the run's input dataset, not
        those of the graph it partitions (``Framework.run`` hands the
        engine ``weighted=dataset.graph.has_weights``).
        """
        if self._symmetric is None:
            self._symmetric = make_undirected(self.graph.topology())
        return self._symmetric

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Dataset {self.name} [{self.category}] |V|={self.graph.num_vertices:,} "
            f"|E|={self.graph.num_edges:,} scale={self.scale_factor:,.0f}x>"
        )


def _spec(name, paper_name, category, kind, gen, V, E, dout, din, diam, gb):
    return DatasetSpec(
        name=name,
        paper_name=paper_name,
        category=category,
        kind=kind,
        generator=gen,
        paper=PaperStats(V, E, dout, din, diam, gb),
    )


DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        # ----------------------------- small --------------------------------
        _spec(
            "rmat23-s", "rmat23", "small", "rmat",
            lambda: rmat(13, edge_factor=1.6, seed=23, name="rmat23-s"),
            8.3e6, 13.4e6, 35e6, 9_776, 3, 1.1,
        ),
        _spec(
            "orkut-s", "orkut", "small", "social",
            lambda: powerlaw_social(
                4096, 76.0, exponent=2.4, in_out_symmetry=1.0, seed=11,
                name="orkut-s",
            ),
            3.1e6, 234e6, 33_313, 33_313, 6, 1.8,
        ),
        _spec(
            "indochina04-s", "indochina04", "small", "webcrawl",
            lambda: webcrawl(
                8192, 26.0, locality_window=256, authority_fraction=0.0008,
                authority_share=0.015, max_out_degree=120, seed=4,
                name="indochina04-s",
            ),
            7.4e6, 194e6, 6_985, 256_425, 2, 1.6,
        ),
        # ----------------------------- medium -------------------------------
        _spec(
            "twitter50-s", "twitter50", "medium", "social",
            lambda: powerlaw_social(
                24576, 38.0, exponent=2.4, num_hubs=1, hub_degree_fraction=0.01,
                in_out_symmetry=0.95, seed=50, name="twitter50-s",
            ),
            51e6, 1.963e9, 779_958, 3.5e6, 12, 16,
        ),
        _spec(
            "friendster-s", "friendster", "medium", "social",
            lambda: powerlaw_social(
                32768, 28.0, exponent=2.6, in_out_symmetry=1.0, seed=66,
                name="friendster-s",
            ),
            66e6, 1.806e9, 5_214, 5_214, 21, 28,
        ),
        _spec(
            "uk07-s", "uk07", "medium", "webcrawl",
            lambda: webcrawl(
                40960, 35.0, locality_window=384, authority_fraction=0.0006,
                authority_share=0.015, tail_length=48, max_out_degree=250,
                seed=7, name="uk07-s",
            ),
            106e6, 3.739e9, 15_402, 975_418, 115, 29,
        ),
        # ----------------------------- large --------------------------------
        _spec(
            "clueweb12-s", "clueweb12", "large", "webcrawl",
            lambda: webcrawl(
                73728, 43.0, locality_window=512, authority_fraction=0.0004,
                authority_share=0.02, max_out_degree=180, seed=12,
                name="clueweb12-s",
            ),
            978e6, 42.574e9, 7_447, 75e6, 501, 325,
        ),
        _spec(
            "uk14-s", "uk14", "large", "webcrawl",
            lambda: webcrawl(
                57344, 60.0, locality_window=448, authority_fraction=0.0005,
                authority_share=0.012, tail_length=120, max_out_degree=400,
                seed=14, name="uk14-s",
            ),
            788e6, 47.615e9, 16_365, 8.6e6, 2498, 361,
        ),
        _spec(
            "wdc14-s", "wdc14", "large", "webcrawl",
            lambda: webcrawl(
                98304, 37.0, locality_window=512, authority_fraction=0.0005,
                authority_share=0.012, max_out_degree=220, seed=41,
                name="wdc14-s",
            ),
            1.725e9, 64.423e9, 32_848, 46e6, 789, 493,
        ),
        # --------------------------- test-only ------------------------------
        _spec(
            "tiny-s", "(test input)", "small", "rmat",
            lambda: rmat(8, edge_factor=4.0, seed=1, name="tiny-s"),
            2.56e4, 1.0e5, 0, 0, 5, 0.001,
        ),
    ]
}


def dataset_names(category: str | None = None, include_test: bool = False) -> list[str]:
    """Names of registered stand-ins, optionally filtered by category."""
    out = []
    for name, spec in DATASETS.items():
        if not include_test and name == "tiny-s":
            continue
        if category is None or spec.category == category:
            out.append(name)
    return out


#: ``load_dataset`` name prefixes that open an on-disk store container
#: instead of generating a stand-in: ``store+mmap:<path>`` serves the CSR
#: arrays as memmaps (out-of-core), ``store+ram:<path>`` loads them fully.
_STORE_PREFIXES = {"store+mmap:": "mmap", "store+ram:": "ram"}


def _load_store_dataset(name: str, mode: str, path: str) -> Dataset:
    """A store container as a 1x-scale dataset: store graphs run at their
    real size rather than as scaled stand-ins (docs/scale.md)."""
    from repro.graph.store import open_csr

    return Dataset(name, "store", open_csr(path, mode=mode), scale_factor=1.0)


#: ``fuzz:<shape>:<seed>`` names a deterministically generated fuzzer
#: shape (:data:`repro.fuzz.gen.SHAPES`) wrapped as a 1x-scale dataset —
#: picklable by name, so sweep workers and the DSE validator can run
#: advisor picks on the exact graph the features were extracted from.
_FUZZ_PREFIX = "fuzz:"


def fuzz_dataset(shape: str, seed: int) -> str:
    """The ``fuzz:<shape>:<seed>`` name :func:`load_dataset` parses."""
    return f"{_FUZZ_PREFIX}{shape}:{seed}"


def _load_fuzz_dataset(name: str) -> Dataset:
    from repro.fuzz.gen import SHAPES, build_shape

    try:
        _, shape, seed_text = name.split(":")
    except ValueError:
        raise UnknownDatasetError(
            f"malformed fuzz dataset {name!r}; expected 'fuzz:<shape>:<seed>'"
        ) from None
    # strictly ASCII digits: int() would also accept "+1", " 1 ", "1_0",
    # and unicode digits (aliasing one graph under several names), and a
    # negative seed would escape as default_rng's bare ValueError
    if not (seed_text.isascii() and seed_text.isdigit()):
        raise UnknownDatasetError(
            f"malformed fuzz dataset {name!r}; expected 'fuzz:<shape>:<seed>' "
            "with a non-negative integer seed"
        )
    seed = int(seed_text)
    if shape not in SHAPES:
        raise UnknownDatasetError(
            f"unknown fuzz shape {shape!r}; known: {sorted(SHAPES)}"
        )
    # build_shape attaches random weights itself, from the same stream.
    # zlib.crc32 (not hash()) keeps the salt stable across processes —
    # sweep workers must regenerate bit-identical graphs from the name.
    salt = zlib.crc32(shape.encode()) & 0x7FFF
    graph = build_shape(shape, np.random.default_rng([seed, salt]))
    return Dataset(name, "fuzz", graph, scale_factor=1.0)


def load_dataset(name: str) -> Dataset:
    """Return the named dataset.

    A registry name generates its stand-in once per process (memoized:
    the name determines the graph).  The returned graph carries
    randomized edge weights (the paper adds them to every input for
    sssp).  ``fuzz:<shape>:<seed>`` names deterministically regenerate a
    fuzzer shape at 1x scale, memoized the same way.

    Names of the form ``store+mmap:<path>`` / ``store+ram:<path>`` open an
    existing store container on every call (the store carries whatever
    weights it was built with): a path names a file, not a graph, so a
    container rewritten at that path is what the next load returns.

    ``load_dataset.cache_clear()`` / ``cache_info()`` act on the memo of
    generated datasets.
    """
    for prefix, mode in _STORE_PREFIXES.items():
        if name.startswith(prefix):
            return _load_store_dataset(name, mode, name[len(prefix):])
    return _generate_dataset(name)


@functools.lru_cache(maxsize=None)
def _generate_dataset(name: str) -> Dataset:
    if name.startswith(_FUZZ_PREFIX):
        return _load_fuzz_dataset(name)
    try:
        spec = DATASETS[name]
    except KeyError:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; known: {sorted(DATASETS)}"
        ) from None
    graph = add_random_weights(spec.generator(), seed=0)
    scale = spec.paper.num_edges / max(graph.num_edges, 1)
    return Dataset(spec.name, spec.category, graph, scale_factor=scale)


load_dataset.cache_clear = _generate_dataset.cache_clear
load_dataset.cache_info = _generate_dataset.cache_info

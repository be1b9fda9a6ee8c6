"""Application registry."""

from __future__ import annotations

from repro.apps.bfs import BFS, DirectionOptBFS
from repro.apps.cc import CC, CCPointerJump
from repro.apps.kcore import KCore
from repro.apps.mis import MIS
from repro.apps.pagerank import PageRankPull, PageRankPush
from repro.apps.sssp import SSSP
from repro.engine.operator import VertexProgram
from repro.gnnflow.workload import GNNFlow
from repro.errors import ConfigurationError

__all__ = ["APPS", "SYMMETRIC_APPS", "get_app"]

APPS: dict[str, type[VertexProgram]] = {
    "bfs": BFS,
    "bfs-do": DirectionOptBFS,
    "sssp": SSSP,
    "cc": CC,
    "cc-pj": CCPointerJump,
    "pr": PageRankPull,
    "pr-push": PageRankPush,
    "kcore": KCore,
    "mis": MIS,
    "gnnflow": GNNFlow,
}

#: apps the frameworks run on the symmetrized graph
SYMMETRIC_APPS = {name for name, app in APPS.items() if app.needs_symmetric}

#: The five benchmarks of the study (Section IV-A).
STUDY_BENCHMARKS = ["bfs", "cc", "kcore", "pr", "sssp"]


def get_app(name: str) -> VertexProgram:
    """Instantiate a registered vertex program."""
    try:
        return APPS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown app {name!r}; known: {sorted(APPS)}"
        ) from None

"""The study's five benchmarks, framework-specific algorithm variants,
and the extension applications (bc, tc, k-truss, mis)."""

from repro.apps.bfs import BFS, DirectionOptBFS
from repro.apps.sssp import SSSP
from repro.apps.cc import CC, CCPointerJump
from repro.apps.pagerank import PageRankPull, PageRankPush
from repro.apps.kcore import KCore
from repro.apps.bc import BrandesBackward, BrandesForward, run_bc
from repro.apps.tc import count_triangles
from repro.apps.ktruss import KTrussResult, ktruss
from repro.apps.mis import MIS, verify_mis
from repro.apps.registry import APPS, get_app

__all__ = [
    "BFS",
    "DirectionOptBFS",
    "SSSP",
    "CC",
    "CCPointerJump",
    "PageRankPull",
    "PageRankPush",
    "KCore",
    "BrandesForward",
    "BrandesBackward",
    "run_bc",
    "count_triangles",
    "ktruss",
    "KTrussResult",
    "MIS",
    "verify_mis",
    "APPS",
    "get_app",
]

"""Shrinking: reduce a failing fuzz case to a minimal reproducer.

A ddmin-flavored greedy reducer.  Each pass proposes structurally smaller
variants of the case (fewer edges, fewer vertices, fewer partitions, no
fault plan) and keeps a variant iff it *still fails* — by default, iff
:func:`repro.fuzz.cases.run_case` still raises.  Passes repeat until a
fixpoint or the attempt budget runs out, so shrinking is always bounded
even when the failure is flaky under reduction.

Symmetric apps (``cc``/``kcore``/...) interpret the graph as undirected;
for those the edge pass removes *mirror pairs* so reduction never breaks
the symmetry the app's reference oracle assumes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.apps.registry import SYMMETRIC_APPS
from repro.fuzz.cases import Case, run_case

__all__ = ["shrink_case", "still_fails"]


def still_fails(case: Case) -> bool:
    """Default failure predicate: replaying the case raises anything."""
    try:
        run_case(case, check="full")
    except Exception:  # the failure oracle: any exception is a finding
        return True
    return False


def _edges(case: Case):
    w = case.weights if case.weights is not None else [1.0] * len(case.src)
    return list(zip(case.src, case.dst, w))


def _with_edges(case: Case, edges) -> Case:
    src = [int(e[0]) for e in edges]
    dst = [int(e[1]) for e in edges]
    weights = [float(e[2]) for e in edges] if case.weights is not None else None
    return replace(case, src=src, dst=dst, weights=weights)


def _sym_pairs(edges):
    """Group a symmetric edge list into canonical undirected pairs."""
    groups: dict[tuple[int, int], list] = {}
    for e in edges:
        key = (min(e[0], e[1]), max(e[0], e[1]))
        groups.setdefault(key, []).append(e)
    return [groups[k] for k in sorted(groups)]


def _shrink_edges(case: Case, fails, budget) -> Case:
    """ddmin over edges (or undirected pairs for symmetric apps)."""
    grouped = case.app in SYMMETRIC_APPS
    units = _sym_pairs(_edges(case)) if grouped else [[e] for e in _edges(case)]
    chunk = max(1, len(units) // 2)
    while chunk >= 1 and budget[0] > 0:
        i, removed = 0, False
        while i < len(units) and budget[0] > 0:
            candidate_units = units[:i] + units[i + chunk:]
            candidate = _with_edges(
                case, [e for u in candidate_units for e in u]
            )
            budget[0] -= 1
            if fails(candidate):
                units, case, removed = candidate_units, candidate, True
            else:
                i += chunk
        chunk = chunk // 2 if not removed or chunk > len(units) else chunk
    return case


def _mutation_vertices(case: Case):
    for m in case.mutations:
        for pair in list(m.get("insert", ())) + list(m.get("delete", ())):
            yield from pair


def _shrink_vertices(case: Case, fails, budget) -> Case:
    """Drop isolated vertices and renumber densely (mutation endpoints
    count as used and are renumbered along with the edge list)."""
    if budget[0] <= 0:
        return case
    used = sorted(set(case.src) | set(case.dst) | set(_mutation_vertices(case)))
    n = len(used)
    if n == 0:
        candidate = replace(case, num_vertices=1, src=[], dst=[],
                            weights=None if case.weights is None else [])
    else:
        remap = {v: i for i, v in enumerate(used)}
        candidate = replace(
            case,
            num_vertices=n,
            src=[remap[v] for v in case.src],
            dst=[remap[v] for v in case.dst],
            mutations=[
                {
                    "timestamp": m["timestamp"],
                    "insert": [[remap[u], remap[v]]
                               for u, v in m.get("insert", ())],
                    "delete": [[remap[u], remap[v]]
                               for u, v in m.get("delete", ())],
                }
                for m in case.mutations
            ],
        )
    if candidate.num_vertices >= case.num_vertices:
        return case
    budget[0] -= 1
    return candidate if fails(candidate) else case


def _shrink_parts(case: Case, fails, budget) -> Case:
    for p in range(1, case.parts):
        if budget[0] <= 0:
            break
        candidate = replace(case, parts=p,
                            fault_plan=[[g, r] for g, r in case.fault_plan
                                        if g < p])
        budget[0] -= 1
        if fails(candidate):
            return candidate
    return case


def _drop_fault_plan(case: Case, fails, budget) -> Case:
    if not case.fault_plan or budget[0] <= 0:
        return case
    candidate = replace(case, fault_plan=[])
    budget[0] -= 1
    return candidate if fails(candidate) else case


def _drop_mutations(case: Case, fails, budget) -> Case:
    """Try losing the mutation axis entirely, then batch by batch."""
    if not case.mutations or budget[0] <= 0:
        return case
    candidate = replace(case, mutations=[])
    budget[0] -= 1
    if fails(candidate):
        return candidate
    i = 0
    while i < len(case.mutations) and budget[0] > 0:
        candidate = replace(
            case, mutations=case.mutations[:i] + case.mutations[i + 1:]
        )
        budget[0] -= 1
        if fails(candidate):
            case = candidate
        else:
            i += 1
    return case


def _size(case: Case) -> tuple:
    return (len(case.src), case.num_vertices, case.parts,
            len(case.fault_plan), len(case.mutations))


def shrink_case(case: Case, fails=None, max_attempts: int = 200) -> Case:
    """Greedily minimize ``case`` while ``fails(case)`` stays true.

    ``fails`` defaults to :func:`still_fails`.  The original case is
    returned untouched if it does not fail to begin with (nothing to
    shrink) or if no smaller failing variant is found within
    ``max_attempts`` replays.
    """
    fails = fails or still_fails
    budget = [int(max_attempts)]
    budget[0] -= 1
    if not fails(case):
        return case
    while budget[0] > 0:
        before = _size(case)
        case = _drop_fault_plan(case, fails, budget)
        case = _drop_mutations(case, fails, budget)
        case = _shrink_edges(case, fails, budget)
        case = _shrink_vertices(case, fails, budget)
        case = _shrink_parts(case, fails, budget)
        if _size(case) == before:
            break
    note = case.note or "fuzz failure"
    return replace(case, note=f"{note} (shrunk)") \
        if not case.note.endswith("(shrunk)") else case

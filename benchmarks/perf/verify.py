"""Output checks: every op of every pass is right or counts as failed.

An op is *failed* when

* it raised / returned a ``failure_kind`` / was served ``failed`` or
  ``rejected``;
* its fingerprint differs between two passes of one run (the first pass
  recorded is the one the others are held to), or the whole-pass digest
  (the serve report) does;
* its fingerprint differs from the committed ``expected.json`` — for the
  seed that file was written with, and on every seed for ops whose
  inputs the seed does not reach;
* its labels disagree with ``repro.validation.reference``.  The
  reference is computed for every op *not* already held to a committed
  fingerprint (those were validated when ``--update-expected`` wrote
  them, and the pagerank reference on the largest stand-in costs more
  than a whole pass), and for every op when expectations are written;
* exact apps (bfs, sssp, cc) on one input disagree across policies.

Integers and strings compare exactly, floats to ``rtol=1e-6``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

__all__ = ["Checker", "EXPECTED_PATH", "load_expected", "fp_equal"]

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")
EXACT_APPS = ("bfs", "sssp", "cc")
FLOAT_RTOL = 1e-6


def load_expected(path: str = EXPECTED_PATH) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def fp_equal(a: dict, b: dict) -> bool:
    """Fingerprint equality: exact, except floats to ``FLOAT_RTOL``."""
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, float) and isinstance(y, float):
            if not math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=0.0):
                return False
        elif x != y:
            return False
    return True


def reference_failure(spec, labels) -> str:
    """"" when ``labels`` agree with the single-machine reference."""
    from repro.apps.kcore import KCore
    from repro.generators.datasets import load_dataset
    from repro.validation import reference as ref

    dataset = load_dataset(spec.dataset)
    framework = spec.system.build()
    app = framework.resolve_app(spec.benchmark)
    ctx = framework.make_context(dataset, app, **dict(spec.ctx_overrides))
    graph = dataset.symmetric() if app.needs_symmetric else dataset.graph
    name = spec.benchmark
    if name == "bfs":
        ok = np.array_equal(labels, ref.reference_bfs(graph, ctx.source))
    elif name == "sssp":
        ok = np.array_equal(labels, ref.reference_sssp(graph, ctx.source))
    elif name == "cc":
        ok = np.array_equal(labels, ref.reference_cc(graph))
    elif name == "kcore":
        mask = KCore.in_core(labels.astype(np.int64), ctx.k)
        ok = np.array_equal(mask, ref.reference_kcore_mask(graph, ctx.k))
    elif name in ("pr", "pr-push"):
        want = ref.reference_pagerank(graph, tol=1e-6, max_iter=2000)
        # the fuzzer's tolerances at the default 1e-4 convergence
        # threshold, widened in step when an op loosens the threshold
        rtol = (1e-2 if name == "pr-push" else 1e-3) * max(
            1.0, ctx.tolerance / 1e-4
        )
        ok = ref.pagerank_close(labels, want, rtol=rtol)
    else:
        return f"no reference for app {name!r}"
    return "" if ok else "labels disagree with repro.validation.reference"


class Checker:
    """Collects the passes of one run and decides which ops failed."""

    def __init__(self, workload, seed: int, expected: dict | None,
                 force_reference: bool = False):
        self.workload = workload
        self.seed = seed
        self.force_reference = force_reference
        self.expected_seed = None
        self.expected = None
        if expected is not None:
            self.expected_seed = expected.get("seed")
            self.expected = expected.get("workloads", {}).get(workload.name)
        self.passes: list = []  # (tag, PassOutput, pass-level error, compare)

    def add_pass(self, tag, out, error: str = "", compare: bool = True) -> None:
        """Record a pass; ``compare=False`` checks it only for ops that
        failed in themselves, not against the other passes."""
        self.passes.append((tag, out, error, compare))

    @property
    def attempted(self) -> int:
        return sum(len(out.ops) for _, out, _, _ in self.passes)

    def _first(self):
        """The pass the others are held to."""
        return next(out for _, out, _, compare in self.passes if compare)

    def fingerprint(self) -> dict:
        """What ``expected.json`` stores for this workload."""
        first = self._first()
        record = {"ops": {op.id: op.fp for op in first.ops}}
        if first.digest:
            record["digest"] = first.digest
        return record

    # ------------------------------------------------------------------ #
    def _covered(self, op) -> bool:
        """Is ``op`` held to a committed fingerprint on this seed?"""
        if self.expected is None:
            return False
        return not op.seeded or self.seed == self.expected_seed

    def _wrong_ops(self, first) -> dict[str, str]:
        """Ops of the first pass that are wrong in themselves."""
        wrong: dict[str, str] = {}
        specs = getattr(self.workload, "specs", None)
        by_input: dict[tuple, int] = {}
        for i, op in enumerate(first.ops):
            covered = self._covered(op)
            if covered:
                want = self.expected["ops"].get(op.id)
                if want is None or not fp_equal(op.fp, want):
                    wrong[op.id] = f"differs from expected.json: {op.fp} != {want}"
                    continue
            if op.labels is None or specs is None:
                continue
            spec = specs[i]
            if self.force_reference or not covered:
                reason = reference_failure(spec, op.labels)
                if reason:
                    wrong[op.id] = reason
                    continue
            if spec.benchmark in EXACT_APPS:
                key = (spec.benchmark, spec.dataset, spec.ctx_overrides)
                crc = by_input.setdefault(key, op.fp["labels_crc"])
                if crc != op.fp["labels_crc"]:
                    wrong[op.id] = "label CRC differs across policies"
        digest_held = first.digest and all(self._covered(op) for op in first.ops)
        if digest_held and first.digest != self.expected.get("digest", ""):
            for op in first.ops:
                wrong.setdefault(op.id, "pass digest differs from expected.json")
        return wrong

    def finish(self) -> list[tuple]:
        """Every failed ``(pass tag, op id, reason)``, at most one per op
        and pass."""
        first = self._first()
        wrong = self._wrong_ops(first)
        first_fp = {op.id: op.fp for op in first.ops}
        failures = []
        for tag, out, error, compare in self.passes:
            digest_differs = out.digest != first.digest
            for op in out.ops:
                if op.failure:
                    reason = op.failure
                elif error:
                    reason = error
                elif not compare:
                    continue
                elif op.id in wrong:
                    reason = wrong[op.id]
                elif op.id not in first_fp or not fp_equal(op.fp, first_fp[op.id]):
                    reason = (
                        f"differs from the first pass: {op.fp} != "
                        f"{first_fp.get(op.id)}"
                    )
                elif digest_differs:
                    reason = "pass digest differs from the first pass"
                else:
                    continue
                failures.append((str(tag), op.id, reason))
        return failures


def write_expected(records: dict, seed: int, path: str = EXPECTED_PATH) -> None:
    """Merge per-workload fingerprints into the expectations file."""
    data = load_expected(path) or {"seed": seed, "workloads": {}}
    if data.get("seed") != seed:
        data = {"seed": seed, "workloads": {}}
    data["workloads"].update(records)
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")

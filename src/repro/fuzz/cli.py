"""Command-line entry point: ``repro-fuzz``.

Typical invocations::

    repro-fuzz --seed 7 --iterations 50        # deterministic batch
    repro-fuzz --seed from-week-number --budget 60s --out fuzz-failures
    repro-fuzz --replay tests/cases/some_case.json
    repro-fuzz --self-test                     # planted-mutation check
    repro-fuzz --advisor-sanity --iterations 20  # repro.tune soundness

Exit codes: 0 clean, 1 failures found (cases written to ``--out``),
2 usage error.  ``--seed from-week-number`` derives the seed from the
ISO calendar week so a scheduled CI job walks a fresh slice of the
search space every week while staying reproducible within one.
"""

from __future__ import annotations

import argparse
import datetime
import os
import re
import sys

from repro.errors import cli_main

__all__ = ["main", "week_seed"]


def week_seed(today: datetime.date | None = None) -> int:
    """Deterministic weekly seed: ``ISO_year * 100 + ISO_week``."""
    today = today or datetime.date.today()
    iso = today.isocalendar()
    return iso[0] * 100 + iso[1]


def _parse_budget(text: str) -> float:
    m = re.fullmatch(r"(\d+(?:\.\d+)?)\s*(s|m|h)?", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r}; use e.g. 60s, 5m, 1h"
        )
    return float(m.group(1)) * {"s": 1, "m": 60, "h": 3600}[m.group(2) or "s"]


def _parse_seed(text: str) -> int:
    if text == "from-week-number":
        return week_seed()
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed {text!r}; an integer or 'from-week-number'"
        )


def _self_test() -> int:
    """Plant each known mutation and demand the harness catches it."""
    from repro.fuzz.mutations import MUTATIONS, run_candidates

    missed = []
    for name, mutation in MUTATIONS.items():
        caught = run_candidates(mutation)
        print(f"  {name}: {'caught' if caught else 'MISSED'}")
        if not caught:
            missed.append(name)
    if missed:
        print(f"self-test FAILED: {len(missed)} planted bug(s) survived: "
              f"{', '.join(missed)}")
        return 1
    print(f"self-test passed: all {len(MUTATIONS)} planted bugs caught")
    return 0


def _advisor_sanity(seed: int, iterations: int) -> int:
    """Cross-check advisor recommendations against the checker's rules.

    Two passes: a clean batch that must find no unsound recommendation,
    and a planted batch (the engine-soundness prune bypassed) where the
    harness *must* catch at least one — proving the check is not vacuous.
    """
    from repro.tune.sanity import advisor_sanity

    clean = advisor_sanity(seed=seed, iterations=iterations)
    print(f"advisor-sanity: {clean.checked}/{clean.iterations} "
          f"recommendations cross-checked, "
          f"{len(clean.violations)} violation(s)")
    for v in clean.violations:
        print(f"  VIOLATION: {v}")
    planted = advisor_sanity(seed=seed, iterations=iterations, planted=True)
    caught = "caught" if planted.violations else "MISSED"
    print(f"  planted-bug self-test: soundness prune bypassed -> "
          f"{len(planted.violations)} violation(s) ({caught})")
    if clean.violations:
        print("advisor-sanity FAILED: the advisor recommended a "
              "configuration the checker rejects")
        return 1
    if not planted.violations:
        print("advisor-sanity FAILED: the planted advisor bug went "
              "unnoticed — the cross-check is vacuous")
        return 1
    print("advisor-sanity passed: clean run sound, planted bug caught")
    return 0


@cli_main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Randomized differential fuzzing of the simulation "
        "stack at FULL invariant-checking level.",
    )
    parser.add_argument("--seed", type=_parse_seed, default=0,
                        help="RNG seed, or 'from-week-number'")
    parser.add_argument("--iterations", type=int, default=None, metavar="N",
                        help="run exactly N cells (fully deterministic)")
    parser.add_argument("--budget", type=_parse_budget, default=None,
                        metavar="T", help="wall-clock budget, e.g. 60s / 5m")
    parser.add_argument("--max-failures", type=int, default=5, metavar="K",
                        help="stop after K distinct failures")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--out", default="fuzz-failures", metavar="DIR",
                        help="directory for failing-case JSON files")
    parser.add_argument("--replay", default=None, metavar="CASE.json",
                        help="replay one saved case instead of fuzzing")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the harness catches planted bugs")
    parser.add_argument("--advisor-sanity", action="store_true",
                        help="cross-check repro.tune recommendations "
                        "against the configuration checker (clean batch "
                        "+ planted-bug self-test; --seed/--iterations "
                        "control the batch)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration progress")
    args = parser.parse_args(argv)

    if args.self_test:
        return _self_test()

    if args.advisor_sanity:
        return _advisor_sanity(args.seed, args.iterations or 20)

    if args.replay:
        from repro.apps import get_app
        from repro.errors import ConfigurationError
        from repro.fuzz.cases import Case, run_case

        case = Case.load(args.replay)
        print(f"replaying {case.cell_id()} ({case.note or 'no note'})")
        try:
            labels = run_case(case, check="full")
        except ConfigurationError as e:
            # a case whose fix was to outlaw its configuration replays
            # as a clean refusal, not a crash (mirrors test_fuzz_cases)
            if case.engine == "basp" and not get_app(case.app).async_capable:
                print(f"ok: configuration is refused as intended ({e})")
                return 0
            raise
        if labels is None:
            print("ok: fault plan fired as scheduled")
        else:
            print("ok: invariants held and the answer matches the reference")
        return 0

    if args.iterations is None and args.budget is None:
        parser.error("need --iterations and/or --budget (or --replay)")
        return 2  # pragma: no cover - parser.error raises SystemExit

    from repro.fuzz.fuzzer import fuzz

    log = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    report = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        budget_seconds=args.budget,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        log=log,
    )
    print(report.summary())
    if report.ok:
        return 0
    os.makedirs(args.out, exist_ok=True)
    for n, failure in enumerate(report.failures):
        path = os.path.join(args.out, f"fuzz_seed{report.seed}_{n}.json")
        failure.shrunk.save(path)
        print(f"  [{failure.kind}] {failure.error}")
        print(f"    shrunk case -> {path} "
              f"(replay: repro-fuzz --replay {path})")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

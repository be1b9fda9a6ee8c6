"""Check levels and the ambient check-level setting.

Mirrors the ambient-tracer pattern in :mod:`repro.obs`: one
process-global level, and the only route to it.  The engines and
:class:`~repro.comm.gluon.GluonComm` read it once at construction, the
partition cache and the pull kernels at call time; a caller that wants
another level installs it with :func:`use_check_level` (tests) or hands
it to a scope installer (``SweepExecutor(check=)``, which carries it
into pool workers).

Zero-overhead contract: at :data:`CheckLevel.OFF` (the default) every
instrumentation site reduces to one falsy test on a cached attribute, and
a run calls only :func:`current_check_level` here: the ``gates`` table's
``off-path`` rows count it, and its gate prices it below 2 % of the matrix.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import IntEnum

from repro.errors import ConfigurationError

__all__ = [
    "CheckLevel",
    "parse_check_level",
    "current_check_level",
    "set_check_level",
    "use_check_level",
]


class CheckLevel(IntEnum):
    """How much runtime invariant checking to do.

    * ``OFF`` — no checks, no measurable overhead (the default);
    * ``CHEAP`` — O(P)/O(proxies) structural checks per build/round;
    * ``FULL`` — everything, including the per-extraction differential
      vectorized-vs-scalar comparison and per-round label-monotonicity
      snapshots.  Meant for tests, the fuzzer, and ``--check full``
      debugging sweeps, not for timing runs.
    """

    OFF = 0
    CHEAP = 1
    FULL = 2


_BY_NAME = {lvl.name.lower(): lvl for lvl in CheckLevel}

_current = CheckLevel.OFF


def parse_check_level(value) -> CheckLevel:
    """Normalize ``"off"/"cheap"/"full"``, ints, or enum members."""
    if isinstance(value, CheckLevel):
        return value
    if isinstance(value, str):
        try:
            return _BY_NAME[value.strip().lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown check level {value!r}; known: {sorted(_BY_NAME)}"
            ) from None
    if isinstance(value, int):
        try:
            return CheckLevel(value)
        except ValueError:
            raise ConfigurationError(
                f"check level must be 0..2, got {value}"
            ) from None
    raise ConfigurationError(f"cannot interpret check level {value!r}")


def current_check_level() -> CheckLevel:
    """The ambient check level (``OFF`` by default)."""
    return _current


def set_check_level(level) -> CheckLevel:
    """Install ``level`` as the ambient check level; returns the previous."""
    global _current
    previous = _current
    _current = parse_check_level(level)
    return previous


@contextmanager
def use_check_level(level):
    """Temporarily install ``level`` as the ambient check level."""
    previous = set_check_level(level)
    try:
        yield _current
    finally:
        set_check_level(previous)

"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
``SimulatedOOMError`` deserves special mention: it is *not* a bug signal but
the mechanism by which the performance simulator reproduces the paper's
"missing data points" — configurations whose partitions do not fit in GPU
memory at paper scale fail exactly the way the real runs did.
"""

from __future__ import annotations

import functools
import sys


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    ``kind`` is the ``failure_kind`` a study cell that died of the error
    records (:class:`repro.runtime.cells.CellOutcome`).  The four classes
    that are a missing-point category of the paper's result matrix name
    their own; everything else is an ``"error"``.  A cell keeps the error
    pickled, so a subclass whose constructor does not take the message
    alone defines ``__reduce__``.
    """

    kind = "error"


class GraphFormatError(ReproError):
    """A graph file or in-memory structure is malformed."""


class PartitioningError(ReproError):
    """A partitioning policy could not produce a valid partition."""


class CommunicationError(ReproError):
    """The communication substrate detected an inconsistency."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its round budget."""


class ConfigurationError(ReproError):
    """An engine/framework configuration is invalid or unsupported."""


class UnknownDatasetError(ConfigurationError, KeyError):
    """No dataset by that name: not in the registry, or a malformed
    ``fuzz:<shape>:<seed>`` / store name.  Still a ``KeyError`` — what
    :func:`~repro.generators.datasets.load_dataset` has always raised —
    for callers that probe the registry."""

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return str(self.args[0])


class UnsupportedFeatureError(ConfigurationError):
    """A framework facade was asked for a feature the real system lacks.

    For example Lux supports only the IEC partitioning policy; asking the
    Lux facade for CVC raises this error rather than silently substituting.
    """

    kind = "unsupported"


class InvariantViolation(ReproError):
    """A runtime invariant checker (:mod:`repro.check`) found a breach.

    Unlike the simulated-failure classes this *is* a bug signal: either the
    framework broke one of its structural contracts (proxy consistency,
    exactly-once edge ownership, label monotonicity, ...) or a checker is
    over-strict.  ``checker`` names the invariant that fired so fuzz cases
    and sweep reports can aggregate by class.
    """

    kind = "invariant"

    def __init__(self, message: str, checker: str = ""):
        self.checker = checker
        super().__init__(f"[{checker}] {message}" if checker else message)


class SimulatedOOMError(ReproError):
    """A simulated GPU ran out of device memory at paper scale.

    Attributes
    ----------
    gpu_index:
        Index of the GPU (partition) that overflowed.
    required_bytes:
        Paper-scale bytes the partition needed.
    capacity_bytes:
        Device capacity of the simulated GPU.
    """

    kind = "oom"

    def __init__(self, gpu_index: int, required_bytes: float, capacity_bytes: float):
        self.gpu_index = int(gpu_index)
        self.required_bytes = float(required_bytes)
        self.capacity_bytes = float(capacity_bytes)
        super().__init__(
            f"simulated OOM on GPU {gpu_index}: needs "
            f"{required_bytes / 2**30:.2f} GiB > capacity "
            f"{capacity_bytes / 2**30:.2f} GiB"
        )

    def __reduce__(self):
        return type(self), (self.gpu_index, self.required_bytes, self.capacity_bytes)


class SimulatedCrashError(ReproError):
    """A framework facade models a configuration the real system crashed on.

    Like :class:`SimulatedOOMError` this is a data point, not a bug: the
    paper's figures have points missing because "the benchmarks failed
    ... due to crashes".  The crash site is preserved so drivers (and
    :class:`repro.runtime.cells.CellOutcome`) can report *where* the
    simulated run died, not just that it did.

    Attributes
    ----------
    gpu_index:
        Index of the GPU (partition) that crashed, or ``None`` if the
        crash is not attributed to a specific device.
    round_index:
        (Local) round at which the crash fired, or ``None``.
    """

    kind = "crash"

    def __init__(self, message: str, gpu_index=None, round_index=None):
        self.gpu_index = None if gpu_index is None else int(gpu_index)
        self.round_index = None if round_index is None else int(round_index)
        super().__init__(message)


def _named_kinds(cls=ReproError):
    if "kind" in vars(cls):
        yield cls.kind, cls
    for sub in cls.__subclasses__():
        yield from _named_kinds(sub)


#: failure kind -> the class that names it: what a recorded failure is
#: rebuilt as when only its kind and message survived
KIND_CLASSES = dict(_named_kinds())


def cli_main(main):
    """Wrap a ``[project.scripts]`` entry point: a :class:`ReproError`
    ends in ``error: <Class>: <message>`` on stderr and exit code 2 for a
    :class:`ConfigurationError` (the invocation is wrong), 1 otherwise.
    Anything else is a bug and keeps its traceback."""

    @functools.wraps(main)
    def guarded(argv: list[str] | None = None) -> int:
        try:
            return main(argv)
        except ReproError as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 2 if isinstance(e, ConfigurationError) else 1

    return guarded

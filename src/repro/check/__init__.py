"""Runtime invariant checking (:class:`CheckLevel`-gated).

The correctness companion to :mod:`repro.obs`: a validator layer that
mechanizes the structural contracts the study's comparability rests on —
CuSP's partitioning invariants, Gluon's proxy-synchronization invariants,
and the engines' accounting/monotonicity invariants — at three levels:

* ``off``  — the default; hot paths pay one falsy test;
* ``cheap`` — O(V + proxies) structural checks at build/round boundaries;
* ``full`` — everything, including the per-extraction batch-vs-oracle
  differential (:mod:`repro.check.oracle` holds the per-element
  references) and per-round label-monotonicity snapshots.

The level is ambient only: install it with :func:`set_check_level` /
:func:`use_check_level`; engines, :class:`~repro.comm.gluon.GluonComm`,
the partition cache and the pull kernels all read that one value.
``repro-study --check {off,cheap,full}`` and the ``repro-fuzz`` harness
drive it from the command line.  See
``docs/correctness.md`` for the invariant catalog.
"""

from repro.check.comm import (
    check_comm_structure,
    check_field_specs,
    check_post_sync,
    differential_extract,
)
from repro.check.engine import (
    MonotoneWatch,
    check_field_views,
    check_final_stats,
    check_operator_ids,
    check_round_record,
)
from repro.check.level import (
    CheckLevel,
    current_check_level,
    parse_check_level,
    set_check_level,
    use_check_level,
)
from repro.check.partition import check_partition, check_partition_request

__all__ = [
    "CheckLevel",
    "MonotoneWatch",
    "check_comm_structure",
    "check_field_specs",
    "check_field_views",
    "check_final_stats",
    "check_operator_ids",
    "check_partition",
    "check_partition_request",
    "check_post_sync",
    "check_round_record",
    "current_check_level",
    "differential_extract",
    "parse_check_level",
    "set_check_level",
    "use_check_level",
]

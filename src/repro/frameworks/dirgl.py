"""D-IrGL facade — the study's primary system (Gluon + IrGL).

D-IrGL is the only framework supporting arbitrary partitioning policies,
both load balancers (TWC and the default ALB), both communication modes
(AS and the default UO, with memoized addresses), and both execution models
(Sync and the default Async).  The study's four variants (Section IV-C):

=====  ====  ====  =====
Var    LB    Comm  Model
=====  ====  ====  =====
Var1   TWC   AS    Sync   (baseline; the optimizations Lux also lacks)
Var2   ALB   AS    Sync
Var3   ALB   UO    Sync
Var4   ALB   UO    Async  (the D-IrGL default)
=====  ====  ====  =====
"""

from __future__ import annotations

from repro.comm.gluon import CommConfig
from repro.frameworks.base import Framework
from repro.hw.memory import DIRGL_PROFILE

__all__ = ["DIrGL"]


class DIrGL(Framework):
    """Configurable D-IrGL: policy x balancer x comm mode x model."""

    name = "d-irgl"
    supported_policies = ("cvc", "oec", "iec", "hvc")
    multi_host = True
    memory_profile = DIRGL_PROFILE

    def __init__(
        self,
        policy: str = "cvc",
        balancer: str = "alb",
        update_only: bool = True,
        execution: str = "async",
        hierarchical: bool = False,
    ):
        """``hierarchical`` opts into two-level (intra-host -> network)
        sync (see :mod:`repro.comm.hier`) — labels are unchanged, only
        the network-leg pricing and wire message counts move."""
        super().__init__(policy)
        self.load_balancer = balancer
        self.comm_config = CommConfig(
            update_only=update_only,
            memoize_addresses=True,
            hierarchical=hierarchical,
        )
        self.execution = execution

    # ---------------- the study's variants ----------------------------- #
    @classmethod
    def var1(cls, policy: str = "iec") -> "DIrGL":
        """TWC + AS + Sync (baseline)."""
        return cls(policy, balancer="twc", update_only=False, execution="sync")

    @classmethod
    def var2(cls, policy: str = "iec") -> "DIrGL":
        """ALB + AS + Sync."""
        return cls(policy, balancer="alb", update_only=False, execution="sync")

    @classmethod
    def var3(cls, policy: str = "iec") -> "DIrGL":
        """ALB + UO + Sync."""
        return cls(policy, balancer="alb", update_only=True, execution="sync")

    @classmethod
    def var4(cls, policy: str = "iec") -> "DIrGL":
        """ALB + UO + Async (the default)."""
        return cls(policy, balancer="alb", update_only=True, execution="async")

    def variant_label(self) -> str:
        lb = self.load_balancer.upper()
        comm = "UO" if self.comm_config.update_only else "AS"
        model = "Async" if self.execution == "async" else "Sync"
        label = f"{lb}+{comm}+{model}"
        if self.comm_config.hierarchical:
            label += "+Hier"
        return label

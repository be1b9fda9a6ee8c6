"""Interconnect link models: PCIe, Omni-Path, and pinned-memory P2P.

A message between GPUs traverses up to three legs (Section III-D):

1. device -> host over PCIe (``cudaMemcpy`` D2H),
2. host -> host over the network (Omni-Path on Bridges) — skipped when both
   GPUs share a host,
3. host -> device over PCIe (H2D).

Each leg is priced ``latency + bytes / bandwidth``.  Lux's pinned-memory
optimization for same-host transfers is modeled as a cheaper intra-host leg
(``PINNED_P2P``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterconnectSpec", "PCIE3_X16", "OMNIPATH", "PINNED_P2P"]


@dataclass(frozen=True)
class InterconnectSpec:
    """One link type with a latency/bandwidth cost model."""

    name: str
    latency_s: float
    bandwidth_bytes: float

    def time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` across this link (one message)."""
        return self.latency_s + nbytes / self.bandwidth_bytes


#: PCIe 3.0 x16: ~12 GB/s effective; ~25 us per cudaMemcpy call (driver
#: setup + staging) — host-device transfers are per-message kernel-launch
#: shaped, not free streams.
PCIE3_X16 = InterconnectSpec(name="pcie3-x16", latency_s=25e-6, bandwidth_bytes=12e9)

#: Intel Omni-Path (Bridges): 100 Gb/s; ~1.5 us wire latency but ~40 us
#: effective per-message cost through the MPI progress engine when the
#: host is routing for a device.
OMNIPATH = InterconnectSpec(name="omni-path", latency_s=40e-6, bandwidth_bytes=10.5e9)

#: Same-host GPU-GPU staging through pinned host memory (Lux's optimization):
#: skips one PCIe hop's worth of latency and streams at PCIe rate.
PINNED_P2P = InterconnectSpec(name="pinned-p2p", latency_s=8e-6, bandwidth_bytes=12e9)

#: NVSwitch (DGX-2): 2.4 TB/s bisection; every GPU pair is one hop with
#: microsecond latency — direct device-to-device, no host routing.
NVSWITCH = InterconnectSpec(name="nvswitch", latency_s=3e-6, bandwidth_bytes=240e9)

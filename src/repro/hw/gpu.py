"""GPU device specifications and the per-device compute-rate model.

The simulator does not execute CUDA; it executes each round's operator with
NumPy and then *prices* the round on a device model.  Graph analytics kernels
are memory-bound, so the model charges bytes-moved against the device memory
bandwidth, discounted by an efficiency factor for irregular (gather/scatter)
access, plus a fixed kernel launch overhead per round.  Load balancers
(:mod:`repro.loadbalance`) additionally stretch the round by the
inter-thread-block imbalance they fail to remove.

Specs below are the three devices in the paper's two platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import GIB

__all__ = ["GPUSpec", "P100", "K80", "GTX1080"]


@dataclass(frozen=True)
class GPUSpec:
    """A simulated GPU device.

    Attributes
    ----------
    name:
        marketing name.
    num_sms:
        streaming multiprocessors; with ``blocks_per_sm`` determines how many
        thread blocks run concurrently (the denominator of the load-balance
        imbalance ratio).
    mem_capacity_bytes:
        device memory; partitions exceeding it OOM (paper-scale bytes).
    mem_bandwidth_bytes:
        peak device memory bandwidth (bytes/s).
    gather_efficiency:
        fraction of peak bandwidth achieved by irregular graph access
        (0.1-0.25 is typical of graph workloads).
    kernel_launch_overhead_s:
        fixed host-side cost of launching one round's kernels.
    blocks_per_sm:
        resident thread blocks per SM for the frameworks' typical kernels.
    """

    name: str
    num_sms: int
    mem_capacity_bytes: float
    mem_bandwidth_bytes: float
    gather_efficiency: float = 0.18
    kernel_launch_overhead_s: float = 12e-6
    blocks_per_sm: int = 4

    @property
    def concurrent_blocks(self) -> int:
        """Thread blocks resident at once; block-level imbalance is measured
        against this width."""
        return self.num_sms * self.blocks_per_sm

    @property
    def effective_bandwidth(self) -> float:
        """Sustained bytes/s for irregular graph traversal."""
        return self.mem_bandwidth_bytes * self.gather_efficiency

    def seconds_for_bytes(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` of graph data through the device."""
        return nbytes / self.effective_bandwidth


#: NVIDIA Tesla P100 (Bridges): 56 SMs, 16 GB HBM2, 732 GB/s.
P100 = GPUSpec(
    name="P100",
    num_sms=56,
    mem_capacity_bytes=16 * GIB,
    mem_bandwidth_bytes=732e9,
)

#: NVIDIA Tesla K80 (one GK210 die, as Tuxedo exposes them): 13 SMs,
#: 12 GB GDDR5, 240 GB/s.
K80 = GPUSpec(
    name="K80",
    num_sms=13,
    mem_capacity_bytes=12 * GIB,
    mem_bandwidth_bytes=240e9,
    gather_efficiency=0.15,
)

#: NVIDIA GeForce GTX 1080 (Tuxedo): 20 SMs, 8 GB GDDR5X, 320 GB/s.
GTX1080 = GPUSpec(
    name="GTX1080",
    num_sms=20,
    mem_capacity_bytes=8 * GIB,
    mem_bandwidth_bytes=320e9,
    gather_efficiency=0.16,
)

#: NVIDIA Tesla V100 (DGX-2): 80 SMs, 32 GB HBM2, 900 GB/s.  Not in the
#: paper's testbeds, but the paper's introduction motivates vertex-cuts
#: with "single-host multi-GPU machines are now being designed with 16
#: GPUs (such as NVIDIA DGX2)" — the :func:`repro.hw.cluster.dgx2`
#: platform lets that argument be tested.
V100 = GPUSpec(
    name="V100",
    num_sms=80,
    mem_capacity_bytes=32 * GIB,
    mem_bandwidth_bytes=900e9,
)

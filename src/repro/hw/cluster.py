"""Cluster topologies: which GPU lives on which host, over which links.

Two concrete platforms mirror Section IV-A:

* :func:`bridges` — up to 32 hosts x 2 Tesla P100 connected by Omni-Path
  (the multi-host platform; 2 GPUs share a machine, as the figure captions
  note);
* :func:`tuxedo` — one host with 4 Tesla K80 + 2 GTX 1080 (the single-host
  platform; heterogeneous devices).

:func:`uniform_cluster` builds arbitrary homogeneous clusters for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.contention import ContentionConfig
from repro.hw.gpu import GPUSpec, GTX1080, K80, P100
from repro.hw.host import BRIDGES_HOST, HostSpec, TUXEDO_HOST
from repro.hw.interconnect import InterconnectSpec, OMNIPATH, PCIE3_X16, PINNED_P2P

__all__ = ["Cluster", "bridges", "tuxedo", "uniform_cluster"]


@dataclass(frozen=True)
class Cluster:
    """A set of GPUs placed on hosts.

    Attributes
    ----------
    gpus:
        one :class:`GPUSpec` per simulated device; GPU index == partition id.
    host_of:
        host index of each GPU.
    hosts:
        host specifications.
    pcie:
        device<->host link used by every transfer.
    network:
        host<->host link for inter-host messages.
    intra_host:
        host-routed same-host device link (pinned memory).
    """

    name: str
    gpus: tuple[GPUSpec, ...]
    host_of: tuple[int, ...]
    hosts: tuple[HostSpec, ...]
    pcie: InterconnectSpec = PCIE3_X16
    network: InterconnectSpec = OMNIPATH
    intra_host: InterconnectSpec = PINNED_P2P
    #: NVIDIA GPUDirect (Peer-to-Peer within a host, RDMA across hosts):
    #: messages move device-to-device without host staging — no PCIe
    #: store-and-forward legs and no host serialization.  The paper's
    #: first recommended improvement (Sections V-C and VII).
    gpudirect: bool = False
    #: Opt-in shared-resource contention (see :mod:`repro.hw.contention`):
    #: same-host messages queue on shared NIC ports / staging paths instead
    #: of each enjoying a private link.  ``None`` (and ``enabled=False``)
    #: keep the flat, bit-identical default pricing.
    contention: ContentionConfig | None = None

    def __post_init__(self):
        if len(self.gpus) != len(self.host_of):
            raise ConfigurationError("gpus and host_of must have equal length")
        if self.host_of and max(self.host_of) >= len(self.hosts):
            raise ConfigurationError("host index out of range")

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def same_host(self, a: int, b: int) -> bool:
        """Do GPUs ``a`` and ``b`` share a host (cheaper communication)?"""
        return self.host_of[a] == self.host_of[b]



def bridges(
    num_gpus: int,
    gpudirect: bool = False,
    contention: ContentionConfig | None = None,
) -> Cluster:
    """The Bridges platform: ``num_gpus`` P100s, 2 per host, Omni-Path.

    The paper uses 1-64 GPUs on up to 32 machines.  ``gpudirect=True``
    models the paper's proposed improvement of device-direct transfers;
    ``contention`` makes each host's two GPUs share its single Omni-Path
    port (see :mod:`repro.hw.contention`).
    """
    if not 1 <= num_gpus <= 64:
        raise ConfigurationError("bridges supports 1..64 GPUs")
    num_hosts = (num_gpus + 1) // 2
    host_of = tuple(i // 2 for i in range(num_gpus))
    return Cluster(
        name=f"bridges-{num_gpus}gpu",
        gpus=tuple([P100] * num_gpus),
        host_of=host_of,
        hosts=tuple([BRIDGES_HOST] * num_hosts),
        gpudirect=gpudirect,
        contention=contention,
    )


def dgx2(num_gpus: int = 16) -> Cluster:
    """An NVIDIA DGX-2: up to 16 V100s behind NVSwitch on one host.

    Not one of the paper's testbeds, but the machine its introduction
    argues needs vertex-cut support ("hardware manufacturers are designing
    single-host multi-GPU systems with 16 GPUs (like NVIDIA DGX2)").
    All transfers are device-direct over NVSwitch.
    """
    from repro.hw.gpu import V100
    from repro.hw.interconnect import NVSWITCH

    if not 1 <= num_gpus <= 16:
        raise ConfigurationError("dgx2 has 16 GPUs")
    return Cluster(
        name=f"dgx2-{num_gpus}gpu",
        gpus=tuple([V100] * num_gpus),
        host_of=tuple([0] * num_gpus),
        hosts=(HostSpec(name="dgx2", num_cores=48, dram_bytes=1536 * 2**30),),
        intra_host=NVSWITCH,
        gpudirect=True,
    )


def tuxedo(
    num_gpus: int = 6, contention: ContentionConfig | None = None
) -> Cluster:
    """The Tuxedo single-host platform: 4x K80 then 2x GTX 1080.

    Requesting fewer than 6 GPUs takes them in that order, matching how the
    study scales 1 -> 2 -> 4 -> 6.  ``contention`` makes all six devices
    share the host's single pinned-staging PCIe tree.
    """
    if not 1 <= num_gpus <= 6:
        raise ConfigurationError("tuxedo has 6 GPUs")
    devices = [K80, K80, K80, K80, GTX1080, GTX1080][:num_gpus]
    return Cluster(
        name=f"tuxedo-{num_gpus}gpu",
        gpus=tuple(devices),
        host_of=tuple([0] * num_gpus),
        hosts=(TUXEDO_HOST,),
        contention=contention,
    )


def uniform_cluster(
    num_gpus: int,
    gpus_per_host: int = 2,
    gpu: GPUSpec = P100,
    host: HostSpec = BRIDGES_HOST,
    network: InterconnectSpec = OMNIPATH,
) -> Cluster:
    """An arbitrary homogeneous cluster (for ablations and tests)."""
    if num_gpus < 1 or gpus_per_host < 1:
        raise ConfigurationError("need at least one GPU and one GPU per host")
    num_hosts = (num_gpus + gpus_per_host - 1) // gpus_per_host
    return Cluster(
        name=f"uniform-{num_gpus}x{gpu.name}",
        gpus=tuple([gpu] * num_gpus),
        host_of=tuple(i // gpus_per_host for i in range(num_gpus)),
        hosts=tuple([host] * num_hosts),
        network=network,
    )

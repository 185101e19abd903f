"""Interconnect link specifications.

Bandwidths follow the paper's §5 assumptions:

* data-center NICs: 100 Gb/s assumed 60% utilised → 8 GB/s effective,
* PCIe switches: 32 GB/s,
* V100 NVLink ring: 135 GB/s per direction (90% of nominal 150 GB/s),
* A100 NVSwitch: 270 GB/s (90% of nominal 300 GB/s).

Latency values are not stated in the paper; we use typical figures (they only
matter for tiny payloads and for the per-step launch overhead of long
programs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import TopologyError

__all__ = ["LinkKind", "LinkSpec", "GB", "GIB"]

GB = 1e9
GIB = float(1 << 30)


class LinkKind(str, Enum):
    """Broad classes of interconnects used to pick contention behaviour."""

    NVSWITCH = "nvswitch"        # full-bandwidth switch: concurrent groups do not contend
    NVLINK_RING = "nvlink-ring"  # shared ring: concurrent intra-node groups contend
    PCIE = "pcie"                # host PCIe switch
    NIC = "nic"                  # per-node NIC into the data-center network
    DCN = "dcn"                  # data-center network fabric
    SHARED_MEMORY = "shm"        # cross-socket shared memory

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_shared_medium(self) -> bool:
        """True when concurrent groups over the same instance share bandwidth."""
        return self in (LinkKind.NVLINK_RING, LinkKind.NIC, LinkKind.DCN, LinkKind.PCIE)


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth/latency description of one interconnect class."""

    name: str
    kind: LinkKind
    bandwidth: float  # bytes per second, per direction
    latency: float    # seconds per hop

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise TopologyError(f"link {self.name!r} must have positive bandwidth")
        if self.latency < 0:
            raise TopologyError(f"link {self.name!r} must have non-negative latency")

    def describe(self) -> str:
        return f"{self.name} ({self.kind}, {self.bandwidth / GB:.1f} GB/s, {self.latency * 1e6:.1f} us)"


# Canonical links used by the GCP builders; exposed for reuse in examples/tests.
DCN_NIC_8GBS = LinkSpec("dcn-nic", LinkKind.NIC, bandwidth=8 * GB, latency=5e-6)
PCIE_32GBS = LinkSpec("pcie-switch", LinkKind.PCIE, bandwidth=32 * GB, latency=2e-6)
NVLINK_RING_135GBS = LinkSpec("nvlink-ring", LinkKind.NVLINK_RING, bandwidth=135 * GB, latency=2e-6)
NVSWITCH_270GBS = LinkSpec("nvswitch", LinkKind.NVSWITCH, bandwidth=270 * GB, latency=2e-6)

"""Machine topologies: a hierarchy plus one interconnect per level.

``interconnects[k]`` is the link used for traffic among *instances of level
k* inside their common parent — i.e. when the lowest common ancestor (LCA) of
the communicating devices sits at level ``k - 1`` (or at the implicit "world"
for ``k = 0``).  For the A100 system ``[(node, 2), (gpu, 16)]`` this means

* ``interconnects[0]`` = the data-center NIC fabric (node-to-node traffic),
* ``interconnects[1]`` = the NVSwitch (GPU-to-GPU traffic within a node).

``host_link`` optionally models a PCIe hop that cross-node traffic must also
traverse (the V100 system); the effective cross-node bandwidth is then the
minimum of the NIC and the host link.

``nic_level`` names the level whose instances own a NIC; the cost model uses
it to count how many concurrent groups share each NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.hierarchy.levels import SystemHierarchy
from repro.topology.links import LinkSpec
from repro.utils.memo import BoundedMemo

__all__ = ["MachineTopology"]

#: Entries each of a topology's memos keeps (least recently used out).
TOPOLOGY_MEMO_BOUND = 1 << 16


def _memo(name: str):
    return field(
        default_factory=lambda: BoundedMemo(f"topology.{name}", TOPOLOGY_MEMO_BOUND),
        init=False, repr=False, compare=False,
    )


@dataclass(frozen=True)
class MachineTopology:
    """A hierarchical machine with per-level interconnects."""

    name: str
    hierarchy: SystemHierarchy
    interconnects: Tuple[LinkSpec, ...]
    nic_level: int = 0
    nics_per_instance: int = 1
    host_link: Optional[LinkSpec] = None
    # Memos for the group-oriented queries below.  The cost model asks the
    # same questions about the same groups once per step of every candidate
    # program, so these pure functions of the (frozen) hierarchy are memoized
    # per instance.  compare=False keeps them out of __eq__ and the generated
    # __hash__, and a memo pickles empty, so a topology shipped to a search
    # shard drags none of them along.
    _span_levels: BoundedMemo = _memo("span_levels")
    _instances: BoundedMemo = _memo("instances")
    _nic_instances: BoundedMemo = _memo("nic_instances")
    # What the cost layer derives from this topology and a lowered step: contention
    # per grouping, the step profile per (collective, groups, pre-state fractions).
    contentions: BoundedMemo = _memo("contentions")
    step_profiles: BoundedMemo = _memo("step_profiles")

    def __post_init__(self) -> None:
        if len(self.interconnects) != self.hierarchy.num_levels:
            raise TopologyError(
                f"expected one interconnect per hierarchy level "
                f"({self.hierarchy.num_levels}), got {len(self.interconnects)}"
            )
        if not 0 <= self.nic_level < self.hierarchy.num_levels:
            raise TopologyError(f"nic_level {self.nic_level} out of range")
        if self.nics_per_instance < 1:
            raise TopologyError("nics_per_instance must be >= 1")

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return self.hierarchy.num_devices

    @property
    def num_levels(self) -> int:
        return self.hierarchy.num_levels

    def interconnect_for_level(self, level: int) -> LinkSpec:
        """Link used by traffic among instances of ``level`` within their parent."""
        if not 0 <= level < self.num_levels:
            raise TopologyError(f"level {level} out of range")
        return self.interconnects[level]

    # ------------------------------------------------------------------ #
    # Group-oriented queries used by the cost model
    # ------------------------------------------------------------------ #
    def span_level(self, devices: Sequence[int]) -> int:
        """The level whose interconnect carries this group's traffic.

        Defined as ``lowest_common_level(devices) + 1``: the shallowest level
        at which the group's members live in different instances.  A group of
        one device spans nothing and raises.
        """
        if len(devices) < 2:
            raise TopologyError("span_level needs at least two devices")
        key = tuple(devices)
        cached = self._span_levels.get(key)
        if cached is not None:
            return cached
        lca = self.hierarchy.lowest_common_level(devices)
        span = lca + 1
        if span >= self.num_levels:  # pragma: no cover - defensive; lca < leaf for >=2 devices
            raise TopologyError("devices do not diverge at any level")
        self._span_levels.put(key, span)
        return span

    def link_for_group(self, devices: Sequence[int]) -> LinkSpec:
        """The (bottleneck) interconnect for a communication group."""
        return self.interconnect_for_level(self.span_level(devices))

    def nic_instances_touched(self, devices: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        """The NIC-owning instances (identified by their coordinates) this group touches."""
        key = tuple(devices)
        cached = self._nic_instances.get(key)
        if cached is not None:
            return cached
        instances = {self.instance_of(d, self.nic_level) for d in devices}
        result = tuple(sorted(instances))
        self._nic_instances.put(key, result)
        return result

    def instance_of(self, device: int, level: int) -> Tuple[int, ...]:
        """Coordinates of ``device``'s ancestor instance at ``level``."""
        key = (device, level)
        cached = self._instances.get(key)
        if cached is None:
            cached = self.hierarchy.ancestor_instance(device, level)
            self._instances.put(key, cached)
        return cached

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        lines = [f"{self.name}: {self.hierarchy.describe()}"]
        for level, link in enumerate(self.interconnects):
            lines.append(f"  level {level} ({self.hierarchy.names[level]}): {link.describe()}")
        if self.host_link is not None:
            lines.append(f"  host link: {self.host_link.describe()}")
        lines.append(
            f"  NICs: {self.nics_per_instance} per {self.hierarchy.names[self.nic_level]}"
        )
        return "\n".join(lines)

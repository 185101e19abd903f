"""Per-step link contention analysis.

Within one step of a lowered program all groups run concurrently, so groups
whose traffic crosses the same physical link share its bandwidth:

* **NICs** — every group whose span reaches above the NIC-owning level loads
  the NIC of every node it touches.  A group's sharing factor is the largest
  number of cross-node groups loading any NIC it uses (divided by the number
  of NICs per node).
* **Shared intra-node media** (the V100 NVLink ring, PCIe) — groups fully
  contained in the same NIC-owning instance share that medium; the sharing
  factor is the number of such co-located groups.
* **Switched intra-node fabrics** (A100 NVSwitch) — per-GPU port bandwidth is
  not shared between disjoint groups, so the factor is 1.

This deliberately coarse model is the same granularity as the paper's own
simulator ("aware of the network topology including different bandwidths for
different interconnects") and is what gives hierarchical strategies their
characteristic behaviour: cross-node steps on small payloads still pay NIC
sharing when many replicas reduce at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import CostModelError
from repro.synthesis.lowering import LoweredStep
from repro.topology.links import LinkSpec
from repro.topology.topology import MachineTopology

__all__ = ["GroupCost", "StepContention", "analyze_step_contention"]


@dataclass(frozen=True)
class GroupCost:
    """Per-group routing decision: which link it bottlenecks on and its sharing."""

    group: Tuple[int, ...]
    span_level: int
    link: LinkSpec
    sharing: float
    crosses_nic: bool

    @property
    def effective_bandwidth(self) -> float:
        return self.link.bandwidth / self.sharing


@dataclass(frozen=True)
class StepContention:
    """Contention analysis of one lowered step."""

    groups: Tuple[GroupCost, ...]

    @property
    def max_sharing(self) -> float:
        return max((g.sharing for g in self.groups), default=1.0)


def analyze_step_contention(
    step: LoweredStep, topology: MachineTopology
) -> StepContention:
    """Compute the link and sharing factor of every group in ``step``: pure in the
    grouping and the topology, so analysed once per grouping per topology object."""
    known = topology.contentions.get(step.groups)
    if known is not None:
        return known
    if topology.num_devices < max(d for g in step.groups for d in g) + 1:
        raise CostModelError(
            "lowered step references devices outside the topology "
            f"({topology.num_devices} devices)"
        )

    spans = [topology.span_level(group) for group in step.groups]
    crosses = [span <= topology.nic_level for span in spans]

    # NIC loading: count cross-node groups per NIC-owning instance.
    nic_load: Dict[Tuple[int, ...], int] = {}
    for group, is_cross in zip(step.groups, crosses):
        if not is_cross:
            continue
        for instance in topology.nic_instances_touched(group):
            nic_load[instance] = nic_load.get(instance, 0) + 1

    # Shared-medium loading: count intra-node groups per NIC-owning instance.
    medium_load: Dict[Tuple[int, ...], int] = {}
    for group, is_cross in zip(step.groups, crosses):
        if is_cross:
            continue
        instance = topology.instance_of(group[0], topology.nic_level)
        medium_load[instance] = medium_load.get(instance, 0) + 1

    group_costs: List[GroupCost] = []
    for group, span, is_cross in zip(step.groups, spans, crosses):
        link = topology.interconnect_for_level(span)
        if is_cross:
            touched = topology.nic_instances_touched(group)
            sharing = max(nic_load[i] for i in touched) / topology.nics_per_instance
            sharing = max(sharing, 1.0)
            # Cross-node traffic may additionally traverse a host (PCIe) link;
            # when that link is slower than the NIC fabric, the effective
            # bandwidth is capped at the host link's, which we fold in by
            # scaling the sharing factor: link.bandwidth / sharing then equals
            # host.bandwidth / nic_sharing.  The scale factor is > 1 and
            # sharing >= 1, so this always *raises* sharing — the historical
            # ``max(sharing, ratio * sharing)`` here was a no-op wrapper
            # around exactly this product.
            host = topology.host_link
            if host is not None and host.bandwidth < link.bandwidth:
                sharing = (link.bandwidth / host.bandwidth) * sharing
        else:
            if link.kind.is_shared_medium:
                instance = topology.instance_of(group[0], topology.nic_level)
                sharing = float(medium_load.get(instance, 1))
            else:
                sharing = 1.0
        group_costs.append(
            GroupCost(
                group=tuple(group),
                span_level=span,
                link=link,
                sharing=sharing,
                crosses_nic=is_cross,
            )
        )
    contention = StepContention(groups=tuple(group_costs))
    topology.contentions.put(step.groups, contention)
    return contention

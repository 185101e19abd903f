"""Generic topology constructors.

The GCP systems of the paper live in :mod:`repro.topology.gcp`; these builders
exist so that examples, tests and users can model other hierarchies (the
rack/server/CPU/GPU system of Figure 2a, deeper data-center trees, ...)
without hand-assembling :class:`MachineTopology` instances.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.hierarchy.levels import SystemHierarchy
from repro.topology.links import LinkKind, LinkSpec
from repro.topology.topology import MachineTopology

__all__ = ["hierarchical_system"]


def hierarchical_system(
    levels: Sequence[Tuple[str, int]],
    bandwidths: Sequence[float],
    latencies: Optional[Sequence[float]] = None,
    kinds: Optional[Sequence[LinkKind]] = None,
    name: str = "custom",
    nic_level: int = 0,
    host_link: Optional[LinkSpec] = None,
) -> MachineTopology:
    """Build a hierarchical machine from per-level bandwidths.

    Parameters
    ----------
    levels:
        ``(name, cardinality)`` pairs, root level first.
    bandwidths:
        One bandwidth (bytes/s) per level: ``bandwidths[k]`` is the link used
        by traffic among instances of level ``k`` within their parent.
    latencies / kinds:
        Optional per-level latencies (default 2 µs) and link kinds (default:
        NIC for level 0, NVSWITCH otherwise).
    """
    hierarchy = SystemHierarchy.from_pairs(levels)
    if len(bandwidths) != hierarchy.num_levels:
        raise TopologyError(
            f"expected {hierarchy.num_levels} bandwidths, got {len(bandwidths)}"
        )
    if latencies is None:
        latencies = [2e-6] * hierarchy.num_levels
    if len(latencies) != hierarchy.num_levels:
        raise TopologyError("latencies must match the number of levels")
    if kinds is None:
        kinds = [LinkKind.NIC if level == 0 else LinkKind.NVSWITCH
                 for level in range(hierarchy.num_levels)]
    if len(kinds) != hierarchy.num_levels:
        raise TopologyError("kinds must match the number of levels")

    interconnects = tuple(
        LinkSpec(
            name=f"{name}-{hierarchy.names[level]}-link",
            kind=kinds[level],
            bandwidth=bandwidths[level],
            latency=latencies[level],
        )
        for level in range(hierarchy.num_levels)
    )
    return MachineTopology(
        name=name,
        hierarchy=hierarchy,
        interconnects=interconnects,
        nic_level=nic_level,
        host_link=host_link,
    )

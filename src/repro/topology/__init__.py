"""Hardware topology models (paper §2, Figure 9 and the §5 assumptions).

A :class:`~repro.topology.topology.MachineTopology` couples a
:class:`~repro.hierarchy.levels.SystemHierarchy` with one interconnect per
level (the link used when communicating devices' lowest common ancestor is an
instance of that level) plus NIC/host-link details needed for contention
modelling.  :mod:`repro.topology.gcp` provides the two GCP systems the paper
evaluates on; :mod:`repro.topology.builders` provides generic constructors for
custom systems (e.g. the rack/server/CPU/GPU system of Figure 2a).
"""

from repro.topology.links import LinkKind, LinkSpec
from repro.topology.topology import MachineTopology
from repro.topology.builders import hierarchical_system
from repro.topology.gcp import a100_system, v100_system, figure2a_system

__all__ = [
    "LinkKind",
    "LinkSpec",
    "MachineTopology",
    "hierarchical_system",
    "a100_system",
    "v100_system",
    "figure2a_system",
]

"""Initial and goal state contexts for a synthesis problem (paper §3.5).

The synthesizer works over ``k`` *virtual devices* — the devices of whatever
synthesis hierarchy is in use.  Initially virtual device ``i`` holds only its
own data (column ``i`` set in every chunk row).  The goal depends on the
grouping the reduction must achieve:

* For the reduction-axis hierarchy (variant (d)) all virtual devices belong to
  one reduction group, so the goal is the full matrix of ones on every device.
* For the whole-system hierarchies (variants (a)–(c)) each device's goal is
  ones in the columns of its own reduction group only.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import SemanticsError
from repro.semantics.state import DeviceState, StateContext

__all__ = ["initial_context", "goal_context", "all_reduce_goal"]


def initial_context(num_devices: int) -> StateContext:
    """Context where every device holds exactly its own data."""
    if num_devices < 1:
        raise SemanticsError("need at least one device")
    return StateContext(tuple(DeviceState.initial(num_devices, d) for d in range(num_devices)))


def goal_context(num_devices: int, groups: Sequence[Sequence[int]]) -> StateContext:
    """Goal context for a partition of the devices into reduction groups.

    Each device must end up holding, for every chunk, the reduction over all
    members of its own group.  ``groups`` must partition ``0..num_devices-1``.
    """
    seen: List[int] = []
    states: List[DeviceState] = [None] * num_devices  # type: ignore[list-item]
    for group in groups:
        full = DeviceState.full(num_devices, group)
        for device in group:
            if not 0 <= device < num_devices:
                raise SemanticsError(f"device {device} out of range in goal groups")
            if states[device] is not None:
                raise SemanticsError(f"device {device} appears in more than one goal group")
            states[device] = full
            seen.append(device)
    if len(seen) != num_devices:
        missing = sorted(set(range(num_devices)) - set(seen))
        raise SemanticsError(f"goal groups do not cover devices {missing}")
    return StateContext(tuple(states))


def all_reduce_goal(num_devices: int) -> StateContext:
    """Goal where all devices form a single reduction group (hierarchy (d) case)."""
    return goal_context(num_devices, [list(range(num_devices))])

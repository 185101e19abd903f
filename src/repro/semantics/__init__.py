"""Formal semantics of collective operations (paper §3.2).

The state of a device is a boolean ``k x k`` matrix (``k`` = number of
participating devices): row ``r`` describes the ``r``-th data chunk, and bit
``c`` of that row records whether device ``c``'s original chunk ``r`` has been
folded into the value this device currently holds.  Collectives are Hoare
triples over these states: a rule checks a precondition on the group members'
states and produces their post-states.

* :mod:`repro.semantics.state` — :class:`DeviceState` and :class:`StateContext`.
* :mod:`repro.semantics.collectives` — the five collectives and their rules.
* :mod:`repro.semantics.goals` — initial and goal contexts for a reduction.
"""

from repro.semantics.state import DeviceState, StateContext
from repro.semantics.collectives import Collective, apply_collective
from repro.semantics.goals import (
    all_reduce_goal,
    goal_context,
    initial_context,
)

__all__ = [
    "DeviceState",
    "StateContext",
    "Collective",
    "apply_collective",
    "initial_context",
    "goal_context",
    "all_reduce_goal",
]

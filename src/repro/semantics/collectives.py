"""Hoare-triple semantics of the five collectives (paper Figure 8).

Each rule takes the pre-states of the devices in one reduction group (in group
order; the first device is the root for Reduce / Broadcast) and either raises
:class:`~repro.errors.InvalidCollectiveError` — the step is semantically
invalid — or returns the post-states.

The rules implemented, matching the paper:

``R-AllReduce``
    All members must hold the same set of non-empty chunks, and for every
    chunk the contributor sets must be pairwise disjoint (never reduce the
    same contribution twice).  Every member ends with the union.
``R-ReduceScatter``
    Same precondition, plus the number of non-empty chunks must be divisible
    by the group size.  Member ``t`` keeps the ``t``-th contiguous block of
    the reduced chunks and drops the rest.
``R-AllGather``
    Members must hold pairwise-disjoint, equally-sized chunk sets.  Everyone
    ends with the union.
``R-Reduce``
    Same precondition as AllReduce; the root gets the union, everyone else is
    cleared.
``R-Broadcast``
    Every member's state must be below the root's, and at least one strictly
    below (information must increase).  Everyone ends with the root's state.

The module additionally exposes per-collective *traffic descriptors* used by
the cost model (how many bytes each member sends/receives relative to its
input payload), so that semantics and costing stay in one place per
collective.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from repro.errors import InvalidCollectiveError, SemanticsError
from repro.semantics.state import DeviceState, popcount

__all__ = [
    "Collective",
    "check_collective",
    "apply_collective",
    "collective_is_valid",
    "ALL_COLLECTIVES",
]


class Collective(str, Enum):
    """The collective operations considered by the paper."""

    ALL_REDUCE = "AllReduce"
    REDUCE_SCATTER = "ReduceScatter"
    ALL_GATHER = "AllGather"
    REDUCE = "Reduce"
    BROADCAST = "Broadcast"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def moves_reduced_data(self) -> bool:
        """True for collectives whose output combines (sums) inputs."""
        return self in (Collective.ALL_REDUCE, Collective.REDUCE_SCATTER, Collective.REDUCE)

    @property
    def is_rooted(self) -> bool:
        """True for collectives with a distinguished root device."""
        return self in (Collective.REDUCE, Collective.BROADCAST)


ALL_COLLECTIVES: Tuple[Collective, ...] = (
    Collective.ALL_REDUCE,
    Collective.REDUCE_SCATTER,
    Collective.ALL_GATHER,
    Collective.REDUCE,
    Collective.BROADCAST,
)


# --------------------------------------------------------------------------- #
# Precondition helpers
# --------------------------------------------------------------------------- #
def _check_group(states: Sequence[DeviceState]) -> None:
    if len(states) < 2:
        raise InvalidCollectiveError(
            f"a collective needs a group of at least 2 devices, got {len(states)}"
        )
    num_chunks = states[0].num_chunks
    for s in states:
        if s.num_chunks != num_chunks:
            sizes = {s.num_chunks for s in states}
            raise SemanticsError(f"all states in a group must have the same size, got {sizes}")


def _check_equal_rows(states: Sequence[DeviceState], op: Collective) -> None:
    """All members must hold the same, non-empty, set of chunks."""
    present = states[0].present
    for i, s in enumerate(states):
        if s.present != present:
            raise InvalidCollectiveError(
                f"{op}: device 0 holds chunks {states[0].non_empty_rows} "
                f"but device {i} holds {s.non_empty_rows}"
            )
    if not present:
        raise InvalidCollectiveError(f"{op}: no device in the group holds any data")


def _check_chunkwise_disjoint(states: Sequence[DeviceState], op: Collective) -> None:
    """For each chunk, contributor sets must be pairwise disjoint across the group."""
    num_chunks = states[0].num_chunks
    seen = 0
    conflict = None  # (lowest chunk folded twice, first member that repeats it)
    for i, s in enumerate(states):
        repeated = s.bits & seen
        if repeated:
            chunk = ((repeated & -repeated).bit_length() - 1) // num_chunks
            if conflict is None or chunk < conflict[0]:
                conflict = (chunk, i)
        seen |= s.bits
    if conflict is not None:
        raise InvalidCollectiveError(
            f"{op}: chunk {conflict[0]} would fold the same contribution twice "
            f"(device {conflict[1]} overlaps with an earlier group member)"
        )
    # Disjointness alone allows the degenerate case where only one member holds
    # data for every chunk; reducing then moves nothing.  Require at least two
    # members with data overall, which together with equal-rows checks above
    # guarantees genuine information increase.
    holders = sum(1 for s in states if s.bits)
    if holders < 2:
        raise InvalidCollectiveError(f"{op}: fewer than two group members hold data")


def _union(states: Sequence[DeviceState]) -> DeviceState:
    bits = present = 0
    for s in states:
        bits |= s.bits
        present |= s.present
    return DeviceState._packed(states[0].num_chunks, bits, present)


# --------------------------------------------------------------------------- #
# The rules
# --------------------------------------------------------------------------- #
def _all_reduce(states: Sequence[DeviceState]) -> List[DeviceState]:
    _check_equal_rows(states, Collective.ALL_REDUCE)
    _check_chunkwise_disjoint(states, Collective.ALL_REDUCE)
    result = _union(states)
    return [result] * len(states)


def _reduce_scatter(states: Sequence[DeviceState]) -> List[DeviceState]:
    _check_equal_rows(states, Collective.REDUCE_SCATTER)
    _check_chunkwise_disjoint(states, Collective.REDUCE_SCATTER)
    group_size = len(states)
    rows = states[0].non_empty_rows
    if len(rows) % group_size != 0:
        raise InvalidCollectiveError(
            f"ReduceScatter: {len(rows)} chunks are not divisible by group size {group_size}"
        )
    reduced = _union(states)
    per_member = len(rows) // group_size
    return [
        reduced.restricted_to_rows(rows[t * per_member : (t + 1) * per_member])
        for t in range(group_size)
    ]


def _all_gather(states: Sequence[DeviceState]) -> List[DeviceState]:
    # Pairwise-disjoint row sets.
    seen_rows = 0
    lengths = set()
    for i, s in enumerate(states):
        rows = s.present
        if not rows:
            raise InvalidCollectiveError("AllGather: a group member holds no data")
        if rows & seen_rows:
            raise InvalidCollectiveError(
                f"AllGather: device {i} holds chunks also held by an earlier member"
            )
        seen_rows |= rows
        lengths.add(popcount(rows))
    if len(lengths) != 1:
        raise InvalidCollectiveError(
            f"AllGather: members hold different numbers of chunks: {sorted(lengths)}"
        )
    result = _union(states)
    return [result] * len(states)


def _reduce(states: Sequence[DeviceState]) -> List[DeviceState]:
    _check_equal_rows(states, Collective.REDUCE)
    _check_chunkwise_disjoint(states, Collective.REDUCE)
    result = _union(states)
    empty = DeviceState._packed(result.num_chunks, 0, 0)
    return [result] + [empty] * (len(states) - 1)


def _broadcast(states: Sequence[DeviceState]) -> List[DeviceState]:
    root = states[0]
    if not root.bits:
        raise InvalidCollectiveError("Broadcast: the root device holds no data")
    strictly_below = False
    for i, s in enumerate(states):
        if s.bits & ~root.bits:
            raise InvalidCollectiveError(
                f"Broadcast: device {i} holds data the root does not (information would be lost)"
            )
        if s.bits != root.bits:
            strictly_below = True
    if not strictly_below:
        raise InvalidCollectiveError("Broadcast: no device would learn anything new")
    return [root] * len(states)


_RULES = {
    Collective.ALL_REDUCE: _all_reduce,
    Collective.REDUCE_SCATTER: _reduce_scatter,
    Collective.ALL_GATHER: _all_gather,
    Collective.REDUCE: _reduce,
    Collective.BROADCAST: _broadcast,
}


def apply_collective(op: Collective, states: Sequence[DeviceState]) -> List[DeviceState]:
    """Apply ``op`` to the group's pre-states; return post-states or raise.

    ``states`` must be ordered by group position: the first entry is the root
    for rooted collectives.
    """
    _check_group(states)
    return _RULES[op](states)


def check_collective(op: Collective, states: Sequence[DeviceState]) -> None:
    """Check the Hoare precondition of ``op`` without computing post-states."""
    apply_collective(op, states)


def collective_is_valid(op: Collective, states: Sequence[DeviceState]) -> bool:
    """Boolean variant of :func:`check_collective`."""
    try:
        apply_collective(op, states)
        return True
    except InvalidCollectiveError:
        return False


# --------------------------------------------------------------------------- #
# Traffic descriptors (consumed by the cost model)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrafficProfile:
    """How much data one collective moves, relative to the per-device input payload.

    ``input_factor`` and ``output_factor`` describe how the per-device resident
    payload changes (ReduceScatter shrinks it by the group size, AllGather
    grows it, the rest keep it constant).  ``ring_volume_factor`` /
    ``tree_volume_factor`` give the per-device bytes sent on the wire as a
    multiple of the per-device input payload ``n`` for a group of size ``g``
    (classic alpha-beta model factors).
    """

    collective: Collective

    def output_payload(self, input_payload: float, group_size: int) -> float:
        if self.collective == Collective.REDUCE_SCATTER:
            return input_payload / group_size
        if self.collective == Collective.ALL_GATHER:
            return input_payload * group_size
        return input_payload

    def ring_bytes_on_wire(self, input_payload: float, group_size: int) -> float:
        g = group_size
        n = input_payload
        if self.collective == Collective.ALL_REDUCE:
            return 2.0 * (g - 1) / g * n
        if self.collective == Collective.REDUCE_SCATTER:
            return (g - 1) / g * n
        if self.collective == Collective.ALL_GATHER:
            return (g - 1) * n
        # Reduce / Broadcast: pipelined chain moves ~n per device.
        return n

    def tree_bytes_on_wire(self, input_payload: float, group_size: int) -> float:
        n = input_payload
        if self.collective == Collective.ALL_REDUCE:
            return 2.0 * n
        if self.collective == Collective.REDUCE_SCATTER:
            return n
        if self.collective == Collective.ALL_GATHER:
            return (group_size - 1) * n
        return n

    def latency_steps_ring(self, group_size: int) -> int:
        g = group_size
        if self.collective == Collective.ALL_REDUCE:
            return 2 * (g - 1)
        return g - 1

    def latency_steps_tree(self, group_size: int) -> int:
        import math

        depth = max(1, math.ceil(math.log2(max(group_size, 2))))
        if self.collective == Collective.ALL_REDUCE:
            return 2 * depth
        return depth


TRAFFIC_PROFILES = {op: TrafficProfile(op) for op in ALL_COLLECTIVES}

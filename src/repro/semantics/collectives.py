"""Hoare-triple semantics of the five collectives (paper Figure 8).

One kernel, :func:`apply_step`, applies a rule to every device group of a
step (in group order; the first device is the root for Reduce / Broadcast) in
place on a list of device states, and returns ``None`` or why the step is
semantically invalid.  :func:`apply_collective` is its one-group call and
raises that reason as an :class:`~repro.errors.InvalidCollectiveError`.

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
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidCollectiveError, SemanticsError
from repro.semantics.state import DeviceState, popcount

__all__ = [
    "Collective",
    "check_collective",
    "apply_collective",
    "apply_step",
    "step_error",
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
# The step kernel
# --------------------------------------------------------------------------- #
# Why a step failed: ``(reason, group index, member index)``.  Only
# :func:`step_error` turns one into a message, so a failed step costs the
# search no formatting and no exception.
StepFailure = Tuple[str, int, int]

_SMALL_GROUP = "small-group"
_UNEQUAL_ROWS = "unequal-rows"
_NO_DATA = "no-data"
_FOLDS_TWICE = "folds-twice"
_NOT_DIVISIBLE = "not-divisible"
_GATHER_EMPTY = "gather-empty"
_GATHER_OVERLAP = "gather-overlap"
_GATHER_UNEVEN = "gather-uneven"
_ROOT_EMPTY = "root-empty"
_LOSES_DATA = "loses-data"
_NOTHING_NEW = "nothing-new"

_ALL_REDUCE, _REDUCE, _ALL_GATHER, _BROADCAST = (
    Collective.ALL_REDUCE, Collective.REDUCE, Collective.ALL_GATHER, Collective.BROADCAST
)


@lru_cache(maxsize=4096)
def _scatter_masks(num_chunks: int, present: int, group_size: int) -> Tuple[Tuple[int, int], ...]:
    """Per ReduceScatter member ``t``: the (bits, rows) masks of the ``t``-th
    contiguous block of the non-empty rows in ``present``."""
    full = (1 << num_chunks) - 1
    rows = [r for r in range(num_chunks) if present >> r & 1]
    per_member = len(rows) // group_size
    masks = []
    for t in range(group_size):
        keep = kept_rows = 0
        for r in rows[t * per_member : (t + 1) * per_member]:
            keep |= full << (r * num_chunks)
            kept_rows |= 1 << r
        masks.append((keep, kept_rows))
    return tuple(masks)


def apply_step(
    op: Collective, groups: Sequence[Sequence[int]], states: List[DeviceState]
) -> Optional[StepFailure]:
    """Apply ``op`` to every group of one step, in place on ``states``.

    ``states`` is indexed by device; each group lists device indices in group
    order (the first member is the root for Reduce / Broadcast).  Returns
    ``None`` when every group satisfies the precondition — ``states`` then
    holds the post-states — else the first failing group's
    :data:`StepFailure`, and ``states`` holds the post-states of the groups
    before it and the pre-states of the rest (:func:`step_error` reads them).
    No exception object is ever built here.

    Preconditions, not checked: the groups of one step are disjoint (a
    ``LoweredStep`` enforces it and ``derive_groups`` partitions), so no group
    reads a post-state another group of the step wrote; and all states have
    one ``num_chunks`` (a ``StateContext`` enforces it).  The rules are those
    of the module docstring, as word arithmetic: equal non-empty chunk sets
    give every member data, so the reducing rules' "at least two members hold
    data" holds whenever their rows check passes.
    """
    # A failing member's position is looked up (``group.index``) only on failure.
    packed = DeviceState._packed
    if op is _ALL_GATHER:
        for g, group in enumerate(groups):
            if len(group) < 2:
                return (_SMALL_GROUP, g, 0)
            first = states[group[0]]
            count = popcount(first.present)
            union = rows_seen = 0
            uneven = False
            for device in group:
                state = states[device]
                rows = state.present
                if not rows:
                    return (_GATHER_EMPTY, g, group.index(device))
                if rows & rows_seen:
                    return (_GATHER_OVERLAP, g, group.index(device))
                rows_seen |= rows
                union |= state.bits
                if popcount(rows) != count:
                    uneven = True
            if uneven:
                return (_GATHER_UNEVEN, g, 0)
            post = packed(first.num_chunks, union, rows_seen)
            for device in group:
                states[device] = post
        return None
    if op is _BROADCAST:
        for g, group in enumerate(groups):
            if len(group) < 2:
                return (_SMALL_GROUP, g, 0)
            first = states[group[0]]
            root = first.bits
            if not root:
                return (_ROOT_EMPTY, g, 0)
            strictly_below = False
            for device in group:
                bits = states[device].bits
                if bits & ~root:
                    return (_LOSES_DATA, g, group.index(device))
                if bits != root:
                    strictly_below = True
            if not strictly_below:
                return (_NOTHING_NEW, g, 0)
            for device in group:
                states[device] = first
        return None
    # The reducing rules: AllReduce, ReduceScatter, Reduce.
    for g, group in enumerate(groups):
        size = len(group)
        if size < 2:
            return (_SMALL_GROUP, g, 0)
        first = states[group[0]]
        present = first.present
        union = 0
        overlap = False
        for device in group:
            state = states[device]
            if state.present != present:
                return (_UNEQUAL_ROWS, g, group.index(device))
            bits = state.bits
            if bits & union:
                overlap = True
            union |= bits
        if not present:
            return (_NO_DATA, g, 0)
        if overlap:
            return (_FOLDS_TWICE, g, 0)
        num_chunks = first.num_chunks
        if op is _ALL_REDUCE:
            post = packed(num_chunks, union, present)
            for device in group:
                states[device] = post
        elif op is _REDUCE:
            states[group[0]] = packed(num_chunks, union, present)
            empty = packed(num_chunks, 0, 0)
            for device in group[1:]:
                states[device] = empty
        else:
            if popcount(present) % size:
                return (_NOT_DIVISIBLE, g, 0)
            for device, (keep, kept_rows) in zip(group, _scatter_masks(num_chunks, present, size)):
                states[device] = packed(num_chunks, union & keep, kept_rows)
    return None


def step_error(
    op: Collective,
    groups: Sequence[Sequence[int]],
    states: Sequence[DeviceState],
    failure: StepFailure,
) -> InvalidCollectiveError:
    """The exception (not raised) that describes ``failure``, as :func:`apply_step`
    left ``states``: the failing group's members still hold their pre-states."""
    reason, g, i = failure
    pre = [states[device] for device in groups[g]]
    if reason == _SMALL_GROUP:
        message = f"a collective needs a group of at least 2 devices, got {len(pre)}"
    elif reason == _UNEQUAL_ROWS:
        message = (
            f"{op}: device 0 holds chunks {pre[0].non_empty_rows} "
            f"but device {i} holds {pre[i].non_empty_rows}"
        )
    elif reason == _NO_DATA:
        message = f"{op}: no device in the group holds any data"
    elif reason == _FOLDS_TWICE:
        # The lowest chunk folded twice, and the first member that repeats it.
        num_chunks = pre[0].num_chunks
        seen = 0
        conflict = None
        for member, state in enumerate(pre):
            repeated = state.bits & seen
            if repeated:
                chunk = ((repeated & -repeated).bit_length() - 1) // num_chunks
                if conflict is None or chunk < conflict[0]:
                    conflict = (chunk, member)
            seen |= state.bits
        message = (
            f"{op}: chunk {conflict[0]} would fold the same contribution twice "
            f"(device {conflict[1]} overlaps with an earlier group member)"
        )
    elif reason == _NOT_DIVISIBLE:
        message = (
            f"ReduceScatter: {popcount(pre[0].present)} chunks are not divisible "
            f"by group size {len(pre)}"
        )
    elif reason == _GATHER_EMPTY:
        message = "AllGather: a group member holds no data"
    elif reason == _GATHER_OVERLAP:
        message = f"AllGather: device {i} holds chunks also held by an earlier member"
    elif reason == _GATHER_UNEVEN:
        lengths = sorted({popcount(state.present) for state in pre})
        message = f"AllGather: members hold different numbers of chunks: {lengths}"
    elif reason == _ROOT_EMPTY:
        message = "Broadcast: the root device holds no data"
    elif reason == _LOSES_DATA:
        message = (
            f"Broadcast: device {i} holds data the root does not (information would be lost)"
        )
    else:
        message = "Broadcast: no device would learn anything new"
    return InvalidCollectiveError(message)


def apply_collective(op: Collective, states: Sequence[DeviceState]) -> List[DeviceState]:
    """Apply ``op`` to one group's pre-states; return post-states or raise.

    ``states`` must be ordered by group position: the first entry is the root
    for rooted collectives.  The one-group call of :func:`apply_step`.
    """
    post = list(states)
    sizes = {s.num_chunks for s in post}
    if len(sizes) > 1:
        raise SemanticsError(f"all states in a group must have the same size, got {sizes}")
    groups = (tuple(range(len(post))),)
    failure = apply_step(op, groups, post)
    if failure is not None:
        raise step_error(op, groups, post, failure)
    return post


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

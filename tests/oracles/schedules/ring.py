"""Ring schedules for the five collectives (NCCL's ``Ring`` algorithm).

All schedules are over group *positions* ``0..g-1`` arranged on a logical
ring; the lowering / executor maps positions onto physical devices.  The
payload is split into ``g`` equal blocks for the bandwidth-optimal
ReduceScatter / AllGather / AllReduce schedules; Reduce and Broadcast are
simple chains that forward the whole payload (matching the ``n/B`` term the
cost model charges them).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ReproError
from oracles.schedules.transfer import CollectiveSchedule, ScheduleRound, Transfer
from repro.semantics.collectives import Collective

__all__ = ["build_ring_schedule"]


def _reduce_scatter_rounds(group_size: int) -> List[ScheduleRound]:
    rounds: List[ScheduleRound] = []
    for r in range(group_size - 1):
        transfers = tuple(
            Transfer(src=i, dst=(i + 1) % group_size, block=(i - r) % group_size, reduce=True)
            for i in range(group_size)
        )
        rounds.append(ScheduleRound(transfers))
    return rounds


def _all_gather_rounds(group_size: int, owner_offset: int) -> List[ScheduleRound]:
    """All-gather rounds assuming position ``i`` initially owns block ``(i + owner_offset) % g``."""
    rounds: List[ScheduleRound] = []
    for r in range(group_size - 1):
        transfers = tuple(
            Transfer(
                src=i,
                dst=(i + 1) % group_size,
                block=(i + owner_offset - r) % group_size,
                reduce=False,
            )
            for i in range(group_size)
        )
        rounds.append(ScheduleRound(transfers))
    return rounds


def _chain_rounds(group_size: int, num_blocks: int, towards_root: bool) -> List[ScheduleRound]:
    """A chain moving the full payload one hop per round (Reduce / Broadcast)."""
    rounds: List[ScheduleRound] = []
    for r in range(group_size - 1):
        if towards_root:
            src, dst = group_size - 1 - r, group_size - 2 - r
        else:
            src, dst = r, r + 1
        transfers = tuple(
            Transfer(src=src, dst=dst, block=block, reduce=towards_root)
            for block in range(num_blocks)
        )
        rounds.append(ScheduleRound(transfers))
    return rounds


def build_ring_schedule(
    collective: Collective, group_size: int, num_blocks: int = 0
) -> CollectiveSchedule:
    """Build the ring schedule for ``collective`` over ``group_size`` positions.

    ``num_blocks`` is only meaningful for the chain collectives (Reduce /
    Broadcast), where it controls the granularity of the forwarded payload; the
    bandwidth-optimal collectives always use ``group_size`` blocks.
    """
    if group_size < 2:
        raise ReproError("ring schedules need at least 2 devices")

    if collective == Collective.REDUCE_SCATTER:
        rounds = _reduce_scatter_rounds(group_size)
        # After the reduce-scatter phase, position i owns block (i + 1) mod g.
        result = tuple(((i + 1) % group_size,) for i in range(group_size))
        return CollectiveSchedule(
            collective, group_size, group_size, tuple(rounds), "ring", result
        )

    if collective == Collective.ALL_GATHER:
        # Assumes position i starts owning block i (the convention the
        # collective-level executor's ReduceScatter leaves behind).
        rounds = _all_gather_rounds(group_size, owner_offset=0)
        return CollectiveSchedule(collective, group_size, group_size, tuple(rounds), "ring")

    if collective == Collective.ALL_REDUCE:
        rounds = _reduce_scatter_rounds(group_size)
        rounds += _all_gather_rounds(group_size, owner_offset=1)
        return CollectiveSchedule(collective, group_size, group_size, tuple(rounds), "ring")

    if collective in (Collective.REDUCE, Collective.BROADCAST):
        blocks = num_blocks if num_blocks > 0 else 1
        towards_root = collective == Collective.REDUCE
        rounds = _chain_rounds(group_size, blocks, towards_root)
        if collective == Collective.REDUCE:
            result: Tuple[Tuple[int, ...], ...] = tuple(
                tuple(range(blocks)) if i == 0 else () for i in range(group_size)
            )
        else:
            result = ()
        return CollectiveSchedule(collective, group_size, blocks, tuple(rounds), "ring", result)

    raise ReproError(f"no ring schedule for collective {collective}")  # pragma: no cover

"""Binomial-tree schedules (NCCL's ``Tree`` algorithm family).

Reduce climbs a binomial tree towards position 0 in ``ceil(log2 g)`` rounds;
Broadcast descends it; AllReduce is a Reduce followed by a Broadcast (2x the
latency depth, matching the tree entries of the cost model).  The whole
payload moves on every hop, again matching the ``n/B``-per-direction
bandwidth term the cost model charges tree collectives.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.errors import ReproError
from oracles.schedules.transfer import CollectiveSchedule, ScheduleRound, Transfer
from repro.semantics.collectives import Collective

__all__ = ["build_tree_schedule"]


def _reduce_rounds(group_size: int, num_blocks: int) -> List[ScheduleRound]:
    rounds: List[ScheduleRound] = []
    depth = max(1, math.ceil(math.log2(group_size)))
    for r in range(depth):
        distance = 1 << r
        transfers: List[Transfer] = []
        for i in range(group_size):
            if i % (2 * distance) == distance:
                dst = i - distance
                transfers.extend(
                    Transfer(src=i, dst=dst, block=block, reduce=True)
                    for block in range(num_blocks)
                )
        if transfers:
            rounds.append(ScheduleRound(tuple(transfers)))
    return rounds


def _broadcast_rounds(group_size: int, num_blocks: int) -> List[ScheduleRound]:
    rounds: List[ScheduleRound] = []
    depth = max(1, math.ceil(math.log2(group_size)))
    for r in range(depth - 1, -1, -1):
        distance = 1 << r
        transfers: List[Transfer] = []
        for i in range(group_size):
            if i % (2 * distance) == 0 and i + distance < group_size:
                transfers.extend(
                    Transfer(src=i, dst=i + distance, block=block, reduce=False)
                    for block in range(num_blocks)
                )
        if transfers:
            rounds.append(ScheduleRound(tuple(transfers)))
    return rounds


def build_tree_schedule(
    collective: Collective, group_size: int, num_blocks: int = 1
) -> CollectiveSchedule:
    """Build the binomial-tree schedule for ``collective``.

    Only the rooted collectives and AllReduce have tree forms; ReduceScatter
    and AllGather raise (NCCL also implements those with rings only).
    """
    if group_size < 2:
        raise ReproError("tree schedules need at least 2 devices")
    if num_blocks < 1:
        raise ReproError("tree schedules need at least one block")

    if collective == Collective.REDUCE:
        rounds = _reduce_rounds(group_size, num_blocks)
        result: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(num_blocks)) if i == 0 else () for i in range(group_size)
        )
        return CollectiveSchedule(collective, group_size, num_blocks, tuple(rounds), "tree", result)

    if collective == Collective.BROADCAST:
        rounds = _broadcast_rounds(group_size, num_blocks)
        return CollectiveSchedule(collective, group_size, num_blocks, tuple(rounds), "tree")

    if collective == Collective.ALL_REDUCE:
        rounds = _reduce_rounds(group_size, num_blocks) + _broadcast_rounds(
            group_size, num_blocks
        )
        return CollectiveSchedule(collective, group_size, num_blocks, tuple(rounds), "tree")

    raise ReproError(f"no tree schedule for collective {collective}")

"""Executing chunk-level schedules on the in-memory cluster.

The executor maps a schedule's *blocks* onto the global chunks the group
currently holds, then applies every transfer (add or overwrite, one block at a
time) in round order.  After the last round it fixes up each member's chunk
validity according to the schedule's declared ``result_blocks``, so the
cluster ends in the same state a collective-level execution would reach — up
to the block-ownership permutation inherent to ring ReduceScatter, which the
schedule itself declares.

This makes it possible to test, end to end, that the ring/tree algorithms the
cost model prices really do implement the collectives whose Hoare semantics
drive synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import RuntimeExecutionError
from repro.runtime.cluster import SimCluster
from oracles.schedules.transfer import CollectiveSchedule
from repro.semantics.collectives import Collective

__all__ = ["ScheduleExecutor", "execute_schedule"]


@dataclass
class ScheduleExecutor:
    """Runs :class:`CollectiveSchedule` objects on a :class:`SimCluster`."""

    cluster: SimCluster

    # ------------------------------------------------------------------ #
    # Block <-> global chunk mapping
    # ------------------------------------------------------------------ #
    def _reference_chunks(
        self, schedule: CollectiveSchedule, group: Sequence[int]
    ) -> Tuple[int, ...]:
        """The global chunks the schedule's blocks partition, in order."""
        op = schedule.collective
        if op in (Collective.ALL_REDUCE, Collective.REDUCE_SCATTER, Collective.REDUCE):
            chunk_sets = {self.cluster[d].sorted_valid_chunks for d in group}
            if len(chunk_sets) != 1:
                raise RuntimeExecutionError(
                    f"{op}: group members hold different chunk sets; cannot partition blocks"
                )
            return next(iter(chunk_sets))
        if op == Collective.BROADCAST:
            return self.cluster[group[0]].sorted_valid_chunks
        # AllGather: the union, ordered; member at position t must own block t.
        union: List[int] = []
        for device in group:
            union.extend(self.cluster[device].sorted_valid_chunks)
        return tuple(sorted(union))

    def _block_to_chunks(
        self, schedule: CollectiveSchedule, reference: Tuple[int, ...]
    ) -> List[Tuple[int, ...]]:
        if not reference:
            raise RuntimeExecutionError("the group holds no valid chunks")
        if len(reference) % schedule.num_blocks != 0:
            raise RuntimeExecutionError(
                f"{len(reference)} chunks cannot be split into {schedule.num_blocks} equal blocks"
            )
        per_block = len(reference) // schedule.num_blocks
        return [
            tuple(reference[b * per_block : (b + 1) * per_block])
            for b in range(schedule.num_blocks)
        ]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, schedule: CollectiveSchedule, group: Sequence[int]) -> None:
        """Run ``schedule`` with group position ``p`` mapped to device ``group[p]``."""
        if len(group) != schedule.group_size:
            raise RuntimeExecutionError(
                f"schedule is for {schedule.group_size} devices but the group has {len(group)}"
            )
        if len(set(group)) != len(group):
            raise RuntimeExecutionError(f"group {tuple(group)} contains duplicate devices")
        for device in group:
            if not 0 <= device < self.cluster.num_devices:
                raise RuntimeExecutionError(f"device {device} out of range")

        reference = self._reference_chunks(schedule, group)
        blocks = self._block_to_chunks(schedule, reference)

        for round_ in schedule.rounds:
            # Snapshot the sent data first so concurrent transfers within a
            # round all read pre-round values (as real hardware would).
            staged = []
            for transfer in round_.transfers:
                src_device = self.cluster[group[transfer.src]]
                payload = {
                    chunk: src_device.chunk(chunk) for chunk in blocks[transfer.block]
                }
                staged.append((transfer, payload))
            for transfer, payload in staged:
                dst_device = self.cluster[group[transfer.dst]]
                for chunk, values in payload.items():
                    if transfer.reduce:
                        dst_device.set_chunk(chunk, dst_device.chunk(chunk) + values)
                    else:
                        dst_device.set_chunk(chunk, values)

        # Fix up validity to the schedule's declared final ownership.
        for position, device_id in enumerate(group):
            device = self.cluster[device_id]
            owned_blocks = schedule.member_result_blocks(position)
            owned_chunks = {chunk for block in owned_blocks for chunk in blocks[block]}
            for chunk in reference:
                if chunk in owned_chunks:
                    device.set_chunk(chunk, device.chunk(chunk), valid=True)
                else:
                    device.invalidate([chunk])


def execute_schedule(
    schedule: CollectiveSchedule, cluster: SimCluster, group: Sequence[int]
) -> None:
    """Convenience wrapper: execute ``schedule`` on ``cluster`` in place."""
    ScheduleExecutor(cluster).execute(schedule, group)

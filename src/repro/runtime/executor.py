"""Numerical execution of lowered programs on the in-memory cluster.

Each collective is implemented directly on the devices' chunked buffers,
following the same conventions as the Hoare semantics (group member 0 is the
root, ReduceScatter deals contiguous blocks of the currently-valid chunks).
Executing a program therefore provides an end-to-end functional check that a
synthesized strategy really computes the requested reduction — the role that
running the lowered XLA/NCCL program on GPUs plays in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeExecutionError
from repro.runtime.cluster import SimCluster
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram, LoweredStep

__all__ = ["CollectiveExecutor", "ExecutionTrace", "execute_program"]


@dataclass(frozen=True)
class TraceEvent:
    """One executed collective over one group (for debugging and tests)."""

    step: int
    collective: Collective
    group: Tuple[int, ...]
    chunks_before: Tuple[int, ...]
    chunks_after: Tuple[int, ...]


@dataclass
class ExecutionTrace:
    """Chronological record of every group-collective executed."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)


@dataclass
class CollectiveExecutor:
    """Executes collectives on a :class:`~repro.runtime.cluster.SimCluster`."""

    cluster: SimCluster
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)

    # ------------------------------------------------------------------ #
    # Group-level collectives
    # ------------------------------------------------------------------ #
    def _check_group(self, group: Sequence[int]) -> None:
        if len(group) < 2:
            raise RuntimeExecutionError(f"group {group} needs at least 2 devices")
        for d in group:
            if not 0 <= d < self.cluster.num_devices:
                raise RuntimeExecutionError(f"device {d} out of range")
        if len(set(group)) != len(group):
            raise RuntimeExecutionError(f"group {group} contains duplicate devices")

    def _common_chunks(self, group: Sequence[int], op: Collective) -> Tuple[int, ...]:
        chunk_sets = [self.cluster[d].sorted_valid_chunks for d in group]
        first = chunk_sets[0]
        for d, chunks in zip(group, chunk_sets):
            if chunks != first:
                raise RuntimeExecutionError(
                    f"{op}: devices in group {tuple(group)} hold different chunk sets"
                )
        if not first:
            raise RuntimeExecutionError(f"{op}: group {tuple(group)} holds no valid chunks")
        return first

    def all_reduce(self, group: Sequence[int]) -> None:
        self._check_group(group)
        chunks = self._common_chunks(group, Collective.ALL_REDUCE)
        for chunk in chunks:
            total = np.sum([self.cluster[d].chunk(chunk) for d in group], axis=0)
            for d in group:
                self.cluster[d].set_chunk(chunk, total)

    def reduce_scatter(self, group: Sequence[int]) -> None:
        self._check_group(group)
        chunks = self._common_chunks(group, Collective.REDUCE_SCATTER)
        if len(chunks) % len(group) != 0:
            raise RuntimeExecutionError(
                f"ReduceScatter: {len(chunks)} chunks not divisible by group size {len(group)}"
            )
        per_member = len(chunks) // len(group)
        totals = {
            chunk: np.sum([self.cluster[d].chunk(chunk) for d in group], axis=0)
            for chunk in chunks
        }
        for position, d in enumerate(group):
            kept = set(chunks[position * per_member : (position + 1) * per_member])
            device = self.cluster[d]
            for chunk in chunks:
                if chunk in kept:
                    device.set_chunk(chunk, totals[chunk])
                else:
                    device.invalidate([chunk])

    def all_gather(self, group: Sequence[int]) -> None:
        self._check_group(group)
        ownership: Dict[int, int] = {}
        sizes = set()
        for d in group:
            chunks = self.cluster[d].sorted_valid_chunks
            if not chunks:
                raise RuntimeExecutionError(f"AllGather: device {d} holds no valid chunks")
            sizes.add(len(chunks))
            for chunk in chunks:
                if chunk in ownership:
                    raise RuntimeExecutionError(
                        f"AllGather: chunk {chunk} held by both device {ownership[chunk]} and {d}"
                    )
                ownership[chunk] = d
        if len(sizes) != 1:
            raise RuntimeExecutionError("AllGather: members hold different chunk counts")
        for chunk, owner in ownership.items():
            values = self.cluster[owner].chunk(chunk)
            for d in group:
                self.cluster[d].set_chunk(chunk, values)

    def reduce(self, group: Sequence[int]) -> None:
        self._check_group(group)
        chunks = self._common_chunks(group, Collective.REDUCE)
        root = group[0]
        for chunk in chunks:
            total = np.sum([self.cluster[d].chunk(chunk) for d in group], axis=0)
            self.cluster[root].set_chunk(chunk, total)
        for d in group[1:]:
            self.cluster[d].invalidate(chunks)

    def broadcast(self, group: Sequence[int]) -> None:
        self._check_group(group)
        root = group[0]
        root_chunks = self.cluster[root].sorted_valid_chunks
        if not root_chunks:
            raise RuntimeExecutionError("Broadcast: the root device holds no valid chunks")
        for chunk in root_chunks:
            values = self.cluster[root].chunk(chunk)
            for d in group[1:]:
                self.cluster[d].set_chunk(chunk, values)

    # ------------------------------------------------------------------ #
    # Program execution
    # ------------------------------------------------------------------ #
    _DISPATCH = {
        Collective.ALL_REDUCE: all_reduce,
        Collective.REDUCE_SCATTER: reduce_scatter,
        Collective.ALL_GATHER: all_gather,
        Collective.REDUCE: reduce,
        Collective.BROADCAST: broadcast,
    }

    def execute_step(self, step_index: int, step: LoweredStep) -> None:
        """Execute all groups of one step (order within the step is irrelevant)."""
        handler = self._DISPATCH[step.collective]
        for group in step.groups:
            before = {d: self.cluster[d].sorted_valid_chunks for d in group}
            handler(self, group)
            for d in group:
                self.trace.record(
                    TraceEvent(
                        step=step_index,
                        collective=step.collective,
                        group=tuple(group),
                        chunks_before=before[d],
                        chunks_after=self.cluster[d].sorted_valid_chunks,
                    )
                )

    def execute(self, program: LoweredProgram) -> ExecutionTrace:
        """Execute the whole program; return the trace."""
        if program.num_devices != self.cluster.num_devices:
            raise RuntimeExecutionError(
                f"program expects {program.num_devices} devices, cluster has "
                f"{self.cluster.num_devices}"
            )
        for step_index, step in enumerate(program.steps):
            self.execute_step(step_index, step)
        return self.trace


def execute_program(program: LoweredProgram, cluster: SimCluster) -> ExecutionTrace:
    """Execute ``program`` on ``cluster`` in place and return the trace."""
    return CollectiveExecutor(cluster).execute(program)

"""Chunk-level schedules for the collectives (the "inside" of NCCL).

The cost model (:mod:`repro.cost.nccl`) prices a collective with the classic
ring / tree formulas; this package makes those algorithms concrete by
generating the actual per-round send/receive schedules:

* :mod:`oracles.schedules.ring` — ring ReduceScatter, AllGather, AllReduce,
  Reduce and Broadcast (pipelined chains),
* :mod:`oracles.schedules.tree` — binomial-tree Reduce, Broadcast and AllReduce,
* :mod:`oracles.schedules.executor` — executes a schedule transfer-by-transfer
  on the in-memory cluster, so schedules can be verified against the
  collective-level executor, and
* :mod:`oracles.schedules.transfer` — the schedule data model plus per-device
  traffic statistics (used to cross-check the alpha-beta cost factors).

This is the SCCL-adjacent substrate: it demonstrates that every collective
step of a lowered program can be realised as point-to-point transfers on the
modelled topology, and it pins the cost model's byte counts to an executable
artifact.
"""

from oracles.schedules.transfer import (
    CollectiveSchedule,
    ScheduleRound,
    ScheduleStatistics,
    Transfer,
    schedule_statistics,
)
from oracles.schedules.ring import build_ring_schedule
from oracles.schedules.tree import build_tree_schedule
from oracles.schedules.executor import ScheduleExecutor, execute_schedule

__all__ = [
    "Transfer",
    "ScheduleRound",
    "CollectiveSchedule",
    "ScheduleStatistics",
    "schedule_statistics",
    "build_ring_schedule",
    "build_tree_schedule",
    "ScheduleExecutor",
    "execute_schedule",
]

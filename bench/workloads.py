"""The benchmark's inputs: which queries each workload sends, and why.

The program only ever receives the :class:`~repro.query.PlanQuery` objects
(or their canonical JSON) built here.  ``--seed`` decides request order,
mix draws and the never-seen payloads; the query *sets* are fixed so their
answers can be compared with ``reference/digests.json`` on every seed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from harness import query_key

from repro.evaluation.config import SystemKind, table4_configs
from repro.query import PlanQuery
from repro.topology.topology import MachineTopology

# Table 4 rows answered cold; H and I are K's structure at 3x the cost and
# are left out to buy repetitions.
COLD_ROWS = ("T4-F", "T4-G", "T4-J", "T4-K", "T4-L")
PAYLOAD_SCALE = 0.02

# Payload ladder: rungs 8x apart (256 KiB .. 128 MiB) under both algorithms.
LADDER_SHAPES = {"F": "T4-F", "K": "T4-K"}
LADDER_RUNGS = (1 << 18, 1 << 21, 1 << 24, 1 << 27)
LADDER_ALGORITHMS = ("ring", "tree")

# The daemon's working set on a100 x 2 nodes: 8 shapes x 2 payloads, well
# under the plan cache's capacity of 128.
DAEMON_SYSTEM, DAEMON_NODES = "a100", 2
DAEMON_SHAPES: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = (
    ((8, 4), (0,)),
    ((8, 4), (1,)),
    ((4, 8), (0,)),
    ((2, 16), (1,)),
    ((32,), (0,)),
    ((2, 2, 8), (0, 2)),
    ((4, 2, 4), (0, 2)),
    ((16, 2), (0,)),
)
DAEMON_PAYLOADS = (1 << 22, 1 << 26)


@dataclass(frozen=True)
class Target:
    """One query against one machine; ``label`` is its query class."""

    label: str
    system: str
    nodes: int
    query: PlanQuery

    @property
    def key(self) -> str:
        return query_key(self.query.to_dict(), self.system, self.nodes)

    @property
    def topology(self) -> MachineTopology:
        return topology(self.system, self.nodes)


@functools.lru_cache(maxsize=None)
def topology(system: str, nodes: int) -> MachineTopology:
    return SystemKind(system).build(nodes)


def _row_targets() -> Dict[str, Target]:
    targets = {}
    for config in table4_configs(PAYLOAD_SCALE):
        targets[config.name] = Target(
            label=config.name,
            system=config.system.value,
            nodes=config.num_nodes,
            query=PlanQuery(
                axes=config.axes,
                request=config.reduction_axes,
                bytes_per_device=config.bytes_per_device,
                algorithm=config.algorithm,
                max_program_size=5,
            ),
        )
    return targets


def cold_rows() -> List[Target]:
    rows = _row_targets()
    return [rows[name] for name in COLD_ROWS]


def payload_ladder(rungs: Tuple[int, ...] = LADDER_RUNGS) -> Dict[str, List[Target]]:
    """Per shape, every (rung, algorithm) query — all plan-cache misses."""
    rows = _row_targets()
    ladder: Dict[str, List[Target]] = {}
    for shape, row in LADDER_SHAPES.items():
        base = rows[row]
        ladder[shape] = [
            Target(
                label=shape,
                system=base.system,
                nodes=base.nodes,
                query=PlanQuery(
                    axes=base.query.axes,
                    request=base.query.request,
                    bytes_per_device=payload,
                    algorithm=algorithm,
                    max_program_size=5,
                ),
            )
            for payload in rungs
            for algorithm in LADDER_ALGORITHMS
        ]
    return ladder


def shape_label(axes: Tuple[int, ...], reduce_axes: Tuple[int, ...]) -> str:
    return "[" + " ".join(map(str, axes)) + "]r" + ",".join(map(str, reduce_axes))


def _daemon_target(shape, payload: int) -> Target:
    axes, reduce_axes = shape
    return Target(
        label=shape_label(axes, reduce_axes),
        system=DAEMON_SYSTEM,
        nodes=DAEMON_NODES,
        query=PlanQuery(axes=axes, request=reduce_axes, bytes_per_device=payload),
    )


def daemon_working_set() -> List[Target]:
    return [_daemon_target(shape, payload)
            for shape in DAEMON_SHAPES for payload in DAEMON_PAYLOADS]


def never_seen(count: int, seed) -> List[Target]:
    """Working-set shapes at seeded payloads no warm file contains (odd sizes)."""
    rng = random.Random(seed)
    return [
        _daemon_target(
            DAEMON_SHAPES[rng.randrange(len(DAEMON_SHAPES))],
            rng.randrange(1 << 20, 1 << 27) | 1,
        )
        for _ in range(count)
    ]


def reference_targets() -> List[Target]:
    """Every fixed query of every workload (what ``--update-reference`` records)."""
    seen: Dict[str, Target] = {}
    ladder = payload_ladder()
    for target in cold_rows() + ladder["F"] + ladder["K"] + daemon_working_set():
        seen.setdefault(target.key, target)
    return list(seen.values())

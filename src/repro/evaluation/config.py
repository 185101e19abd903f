"""Experiment configurations.

An :class:`ExperimentConfig` captures everything needed to reproduce one row
group of the paper's evaluation: which GPU system (and how many nodes), the
parallelism axes, the reduction axes, the NCCL algorithm and the payload.

The named constructors mirror the paper:

* :func:`table3_configs` — the placement-impact experiments (Table 3):
  A100 4-node ``[2 32]``, ``[4 16]``, ``[8 8]`` and V100 4-node ``[8 4]``,
  each reduced over axis 0 and axis 1, ring and tree.
* :func:`table4_configs` — the synthesis experiments (Table 4, rows F–L).
* :func:`appendix_configs` — the full appendix sweep (every axis shape for
  both systems with 2 and 4 nodes).
* :func:`table5_configs` / :func:`figure11_configs` — the simulator-accuracy
  experiments.

The paper's payload is ``2^29 * num_nodes`` float32 values per GPU
(:func:`paper_payload_bytes`).  The evaluation harness accepts a
``payload_scale`` so tests and quick benchmark runs can use smaller payloads
without changing relative behaviour (times scale linearly in the
bandwidth-dominated regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.topology.gcp import a100_system, v100_system
from repro.topology.topology import MachineTopology

__all__ = [
    "SystemKind",
    "ExperimentConfig",
    "paper_payload_bytes",
    "table3_configs",
    "table4_configs",
    "table5_configs",
    "appendix_configs",
    "figure11_configs",
]

FLOAT32_BYTES = 4


class SystemKind(str, Enum):
    """The two GPU systems of the paper."""

    A100 = "a100"
    V100 = "v100"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    def build(self, num_nodes: int) -> MachineTopology:
        if self == SystemKind.A100:
            return a100_system(num_nodes=num_nodes)
        return v100_system(num_nodes=num_nodes)

    @property
    def gpus_per_node(self) -> int:
        return 16 if self == SystemKind.A100 else 8


def paper_payload_bytes(num_nodes: int) -> int:
    """The paper's payload: ``2^29 * num_nodes`` float32 values per GPU."""
    if num_nodes < 1:
        raise EvaluationError("num_nodes must be >= 1")
    return (1 << 29) * num_nodes * FLOAT32_BYTES


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a system, a parallelism shape and a reduction request."""

    name: str
    system: SystemKind
    num_nodes: int
    axes: Tuple[int, ...]
    reduction_axes: Tuple[int, ...]
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING
    payload_scale: float = 1.0
    max_program_size: int = 5

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise EvaluationError("num_nodes must be >= 1")
        if not self.axes:
            raise EvaluationError("at least one parallelism axis is required")
        if not self.reduction_axes:
            raise EvaluationError("at least one reduction axis is required")
        if not 0 < self.payload_scale <= 1.0:
            raise EvaluationError("payload_scale must be in (0, 1]")
        total = 1
        for a in self.axes:
            total *= a
        expected = self.num_nodes * self.system.gpus_per_node
        if total != expected:
            raise EvaluationError(
                f"config {self.name!r}: parallelism {list(self.axes)} covers {total} devices "
                f"but the system has {expected}"
            )
        for axis in self.reduction_axes:
            if not 0 <= axis < len(self.axes):
                raise EvaluationError(
                    f"config {self.name!r}: reduction axis {axis} out of range"
                )

    # ------------------------------------------------------------------ #
    # Derived objects
    # ------------------------------------------------------------------ #
    def topology(self) -> MachineTopology:
        return self.system.build(self.num_nodes)

    def parallelism(self) -> ParallelismAxes:
        return ParallelismAxes(tuple(self.axes))

    def request(self) -> ReductionRequest:
        return ReductionRequest(tuple(self.reduction_axes))

    @property
    def bytes_per_device(self) -> int:
        return max(1, int(paper_payload_bytes(self.num_nodes) * self.payload_scale))

    def describe(self) -> str:
        axes = " ".join(str(a) for a in self.axes)
        reduce_axes = ",".join(str(a) for a in self.reduction_axes)
        return (
            f"{self.name}: {self.system} x{self.num_nodes} nodes, axes [{axes}], "
            f"reduce on [{reduce_axes}], {self.algorithm}"
        )


# --------------------------------------------------------------------------- #
# Named configuration sets mirroring the paper's tables
# --------------------------------------------------------------------------- #
def _config(
    name: str,
    system: SystemKind,
    nodes: int,
    axes: Sequence[int],
    reduction: Sequence[int],
    algorithm: NCCLAlgorithm,
    payload_scale: float,
) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        system=system,
        num_nodes=nodes,
        axes=tuple(axes),
        reduction_axes=tuple(reduction),
        algorithm=algorithm,
        payload_scale=payload_scale,
    )


def table3_configs(payload_scale: float = 1.0) -> List[ExperimentConfig]:
    """Placement-impact experiments (Table 3): AllReduce only, both axes, both algorithms."""
    configs: List[ExperimentConfig] = []
    shapes = {
        "A": (SystemKind.A100, 4, (2, 32)),
        "B": (SystemKind.A100, 4, (4, 16)),
        "C": (SystemKind.A100, 4, (8, 8)),
        "E": (SystemKind.V100, 4, (8, 4)),
    }
    for label, (system, nodes, axes) in shapes.items():
        for reduction_axis in (0, 1):
            for algorithm in (NCCLAlgorithm.RING, NCCLAlgorithm.TREE):
                configs.append(
                    _config(
                        f"T3-{label}-axis{reduction_axis}-{algorithm.value}",
                        system,
                        nodes,
                        axes,
                        (reduction_axis,),
                        algorithm,
                        payload_scale,
                    )
                )
    return configs


def table4_configs(payload_scale: float = 1.0) -> List[ExperimentConfig]:
    """Synthesis experiments (Table 4, rows F1–L1)."""
    rows = [
        ("F", SystemKind.A100, 2, (8, 4), (0,), NCCLAlgorithm.RING),
        ("G", SystemKind.A100, 4, (4, 16), (0,), NCCLAlgorithm.TREE),
        ("H", SystemKind.A100, 4, (16, 2, 2), (0, 2), NCCLAlgorithm.RING),
        ("I", SystemKind.A100, 4, (2, 2, 16), (0, 2), NCCLAlgorithm.RING),
        ("J", SystemKind.A100, 4, (64,), (0,), NCCLAlgorithm.TREE),
        ("K", SystemKind.V100, 4, (8, 2, 2), (0, 2), NCCLAlgorithm.RING),
        ("L", SystemKind.V100, 4, (32,), (0,), NCCLAlgorithm.RING),
    ]
    return [
        _config(f"T4-{label}", system, nodes, axes, reduction, algorithm, payload_scale)
        for label, system, nodes, axes, reduction, algorithm in rows
    ]


def figure11_configs(payload_scale: float = 1.0) -> List[ExperimentConfig]:
    """The two per-program accuracy plots of Figure 11."""
    return [
        _config(
            "F11a-v100-ring-2x16-axis1",
            SystemKind.V100,
            4,
            (2, 16),
            (1,),
            NCCLAlgorithm.RING,
            payload_scale,
        ),
        _config(
            "F11b-a100-tree-4x2x8-axes02",
            SystemKind.A100,
            4,
            (4, 2, 8),
            (0, 2),
            NCCLAlgorithm.TREE,
            payload_scale,
        ),
    ]


def _axis_shapes_for(total: int, max_axes: int = 3) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The (axes, reduction axes) shapes the appendix sweeps for ``total`` devices.

    Mirrors the paper's §4 protocol: a single axis reduced over itself, every
    two-axis factorization reduced over each axis, and three-axis shapes
    reduced over axes 0 and 2.
    """
    shapes: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [((total,), (0,))]
    # Two-axis factorizations p0 * p1 = total with p0, p1 >= 2.
    p0 = 2
    while p0 <= total // 2:
        if total % p0 == 0:
            p1 = total // p0
            if p1 >= 2:
                shapes.append(((p0, p1), (0,)))
                shapes.append(((p0, p1), (1,)))
        p0 += 1
    if max_axes >= 3:
        # Three-axis shapes used in the paper: middle axis of size 2.
        p0 = 2
        while p0 <= total // 4:
            if total % (p0 * 2) == 0:
                p2 = total // (p0 * 2)
                if p2 >= 2:
                    shapes.append(((p0, 2, p2), (0, 2)))
            p0 += 1
    return shapes


def appendix_configs(
    payload_scale: float = 1.0,
    node_counts: Sequence[int] = (2, 4),
    systems: Sequence[SystemKind] = (SystemKind.A100, SystemKind.V100),
    algorithms: Sequence[NCCLAlgorithm] = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE),
    max_axes: int = 3,
) -> List[ExperimentConfig]:
    """The full appendix sweep (every axis shape, both systems, 2 and 4 nodes)."""
    configs: List[ExperimentConfig] = []
    for system in systems:
        for nodes in node_counts:
            total = nodes * system.gpus_per_node
            for axes, reduction in _axis_shapes_for(total, max_axes):
                for algorithm in algorithms:
                    axes_name = "x".join(str(a) for a in axes)
                    reduce_name = "".join(str(a) for a in reduction)
                    configs.append(
                        _config(
                            f"APP-{system.value}-{nodes}n-{axes_name}-r{reduce_name}-{algorithm.value}",
                            system,
                            nodes,
                            axes,
                            reduction,
                            algorithm,
                            payload_scale,
                        )
                    )
    return configs


def table5_configs(payload_scale: float = 1.0, quick: bool = True) -> List[ExperimentConfig]:
    """Experiments aggregated into the Table 5 accuracy numbers.

    The paper aggregates over *all* of its experiments; ``quick=True`` uses the
    Table 4 set plus the Figure 11 configurations (a representative subset),
    ``quick=False`` uses the whole appendix sweep.
    """
    if quick:
        return table4_configs(payload_scale) + figure11_configs(payload_scale)
    return appendix_configs(payload_scale)

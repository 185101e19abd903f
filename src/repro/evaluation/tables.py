"""Row generators for the paper's tables.

Each ``build_table*`` function returns a :class:`TableArtifact`: the header,
the rows and a pre-rendered plain-text form.  The benchmark harness prints
these artefacts; EXPERIMENTS.md records them next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.allreduce import default_all_reduce
from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.accuracy import DEFAULT_TOP_KS, accuracy_table
from repro.evaluation.config import (
    ExperimentConfig,
    SystemKind,
    table3_configs,
    table4_configs,
    table5_configs,
)
from repro.evaluation.runner import SweepResult, SweepRunner
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.placement import DevicePlacement
from repro.runtime.events import TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.utils.tabulate import format_table

__all__ = [
    "TableArtifact",
    "build_table3",
    "build_table4",
    "build_table5",
    "build_appendix_table",
]


@dataclass(frozen=True)
class TableArtifact:
    """A reproduced table: header, rows and rendered text."""

    name: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    text: str


def _render(name: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> TableArtifact:
    text = format_table(headers, rows, title=name, float_fmt="{:.3f}")
    return TableArtifact(
        name=name,
        headers=tuple(headers),
        rows=tuple(tuple(r) for r in rows),
        text=text,
    )


# --------------------------------------------------------------------------- #
# Table 3: impact of parallelism placement on AllReduce
# --------------------------------------------------------------------------- #
def _allreduce_time(config: ExperimentConfig, matrix) -> float:
    """Measured time of the default AllReduce on one matrix under ``config``."""
    placement = DevicePlacement(matrix)
    program = default_all_reduce(placement, config.request())
    if program.num_steps == 0:
        return 0.0
    # The noise model is reseeded per row so row values are order-independent,
    # which a shared testbed would break.
    testbed = TestbedSimulator(config.topology(), NoiseModel(seed=0))
    return testbed.measure(
        program, config.bytes_per_device, config.algorithm, num_runs=3
    ).total_seconds


def build_table3(payload_scale: float = 1.0) -> TableArtifact:
    """Table 3: measured AllReduce time per parallelism matrix, reduction axis
    and NCCL algorithm."""
    configs = table3_configs(payload_scale)
    # Group the 4 algorithm/axis variants of each shape together.
    by_shape: Dict[Tuple[SystemKind, Tuple[int, ...]], Dict[Tuple[int, NCCLAlgorithm], ExperimentConfig]] = {}
    for config in configs:
        key = (config.system, config.axes)
        by_shape.setdefault(key, {})[(config.reduction_axes[0], config.algorithm)] = config

    rows: List[List[object]] = []
    for (system, axes), variants in by_shape.items():
        any_config = next(iter(variants.values()))
        matrices = enumerate_parallelism_matrices(
            any_config.topology().hierarchy, any_config.parallelism()
        )
        axes_label = f"{system.value} [" + " ".join(str(a) for a in axes) + "]"
        for matrix in matrices:
            row: List[object] = [axes_label, matrix.describe()]
            for reduction_axis in (0, 1):
                for algorithm in (NCCLAlgorithm.RING, NCCLAlgorithm.TREE):
                    config = variants[(reduction_axis, algorithm)]
                    row.append(_allreduce_time(config, matrix))
            rows.append(row)
    headers = [
        "System / axes",
        "Parallelism matrix",
        "axis0 Ring (s)",
        "axis0 Tree (s)",
        "axis1 Ring (s)",
        "axis1 Tree (s)",
    ]
    return _render("Table 3: AllReduce time per parallelism matrix", headers, rows)


# --------------------------------------------------------------------------- #
# Table 4: synthesized strategies vs. AllReduce
# --------------------------------------------------------------------------- #
def table4_rows_from_results(results: Sequence[SweepResult]) -> List[List[object]]:
    rows: List[List[object]] = []
    for result in results:
        config = result.config
        total_programs = result.total_programs
        outperforming = sum(
            m.programs_outperforming_all_reduce() for m in result.matrices
        )
        for matrix in result.matrices:
            baseline = matrix.all_reduce
            best = matrix.best()
            if baseline is None or best is None:
                continue
            speedup = matrix.speedup_over_all_reduce() or 1.0
            rows.append(
                [
                    config.name,
                    config.algorithm.value,
                    "[" + " ".join(str(a) for a in config.axes) + "]",
                    round(result.synthesis_seconds, 3),
                    f"{outperforming}/{total_programs}",
                    matrix.matrix_description,
                    baseline.evaluation_seconds,
                    best.evaluation_seconds,
                    round(speedup, 2),
                    best.mnemonic,
                ]
            )
    return rows


def build_table4(
    payload_scale: float = 1.0,
    runner: Optional[SweepRunner] = None,
    results: Optional[Sequence[SweepResult]] = None,
) -> TableArtifact:
    """Table 4: per-matrix AllReduce vs. the synthesized optimum (rows F1–L1)."""
    if results is None:
        runner = runner or SweepRunner()
        results = runner.run_many(table4_configs(payload_scale))
    rows = table4_rows_from_results(results)
    headers = [
        "Config",
        "NCCL algo",
        "Parallelism axes",
        "Synthesis time (s)",
        "Outperforming / total",
        "Parallelism matrix",
        "AllReduce (s)",
        "Optimal (s)",
        "Speedup",
        "Optimal program",
    ]
    return _render("Table 4: synthesized reduction strategies vs AllReduce", headers, rows)


# --------------------------------------------------------------------------- #
# Table 5: simulator accuracy
# --------------------------------------------------------------------------- #
def build_table5(
    payload_scale: float = 1.0,
    quick: bool = True,
    runner: Optional[SweepRunner] = None,
    results: Optional[Sequence[SweepResult]] = None,
    top_ks: Sequence[int] = DEFAULT_TOP_KS,
) -> TableArtifact:
    """Table 5: top-k accuracy of the analytic predictor vs. testbed measurements."""
    if results is None:
        runner = runner or SweepRunner()
        results = runner.run_many(table5_configs(payload_scale, quick=quick))
    by_system: Dict[str, List[SweepResult]] = {}
    for result in results:
        by_system.setdefault(result.config.system.value.upper(), []).append(result)
    rows = accuracy_table(by_system, top_ks)
    headers = ["System"] + [f"Top-{k} (%)" for k in top_ks]
    return _render("Table 5: simulator top-k prediction accuracy", headers, rows)


# --------------------------------------------------------------------------- #
# Appendix: full sweep
# --------------------------------------------------------------------------- #
def build_appendix_table(results: Sequence[SweepResult]) -> TableArtifact:
    """The appendix table: every configuration with per-matrix AllReduce/optimal/speedup."""
    if not results:
        raise EvaluationError("the appendix table needs at least one sweep result")
    rows: List[List[object]] = []
    for result in results:
        config = result.config
        for matrix in result.matrices:
            baseline = matrix.all_reduce
            best = matrix.best()
            if baseline is None or best is None:
                continue
            rows.append(
                [
                    config.name,
                    config.system.value,
                    config.num_nodes,
                    "[" + " ".join(str(a) for a in config.axes) + "]",
                    ",".join(str(a) for a in config.reduction_axes),
                    config.algorithm.value,
                    round(result.synthesis_seconds, 3),
                    matrix.num_programs,
                    matrix.matrix_description,
                    baseline.evaluation_seconds,
                    best.evaluation_seconds,
                    round(matrix.speedup_over_all_reduce() or 1.0, 2),
                ]
            )
    headers = [
        "Config",
        "System",
        "Nodes",
        "Axes",
        "Reduce",
        "Algo",
        "Synthesis (s)",
        "Programs",
        "Matrix",
        "AllReduce (s)",
        "Optimal (s)",
        "Speedup",
    ]
    return _render("Appendix: full placement/strategy sweep", headers, rows)

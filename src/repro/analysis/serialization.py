"""JSON persistence for sweep results: one self-contained record per scenario.

Only plain data is stored: configurations are flattened to their constructor
arguments and each program keeps its label, mnemonic, size and the two times.
Loading therefore does not reconstruct lowered programs (they can always be
re-synthesized deterministically from the configuration); it reconstructs
everything the tables, figures and statistics need.

:func:`result_to_record` / :func:`result_from_record` convert one scenario's
result; :meth:`~repro.evaluation.runner.SweepRunner.run_stream` writes the
records as JSONL (``repro-cli sweep --out``; one flushed line per scenario =
a resumable checkpoint) and :func:`load_jsonl_results` reads a file back.
Records carry the scenario name, the canonical :class:`~repro.query.PlanQuery`
dict and the :class:`~repro.query.PlanOutcome` provenance next to the result
proper.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import ExperimentConfig, SystemKind
from repro.evaluation.runner import MatrixResult, ProgramResult, SweepResult
from repro.hierarchy.matrix import ParallelismMatrix
from repro.hierarchy.parallelism import ParallelismAxes
from repro.hierarchy.levels import SystemHierarchy

__all__ = [
    "result_to_record",
    "result_from_record",
    "load_jsonl_results",
    "iter_jsonl_records",
]

SWEEP_RECORD_VERSION = 1


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _config_to_dict(config: ExperimentConfig) -> Dict:
    return {
        "name": config.name,
        "system": config.system.value,
        "num_nodes": config.num_nodes,
        "axes": list(config.axes),
        "reduction_axes": list(config.reduction_axes),
        "algorithm": config.algorithm.value,
        "payload_scale": config.payload_scale,
        "max_program_size": config.max_program_size,
    }


def _program_to_dict(program: ProgramResult) -> Dict:
    return {
        "label": program.label,
        "mnemonic": program.mnemonic,
        "size": program.size,
        "num_steps": program.num_steps,
        "predicted_seconds": program.predicted_seconds,
        "measured_seconds": program.measured_seconds,
        "is_default_all_reduce": program.is_default_all_reduce,
    }


def _matrix_to_dict(matrix: MatrixResult) -> Dict:
    return {
        "entries": [list(row) for row in matrix.matrix.entries],
        "synthesis_seconds": matrix.synthesis_seconds,
        "programs": [_program_to_dict(p) for p in matrix.programs],
    }


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
def _config_from_dict(data: Dict) -> ExperimentConfig:
    return ExperimentConfig(
        name=data["name"],
        system=SystemKind(data["system"]),
        num_nodes=data["num_nodes"],
        axes=tuple(data["axes"]),
        reduction_axes=tuple(data["reduction_axes"]),
        algorithm=NCCLAlgorithm(data["algorithm"]),
        payload_scale=data["payload_scale"],
        max_program_size=data["max_program_size"],
    )


def _matrix_from_dict(data: Dict, config: ExperimentConfig) -> MatrixResult:
    hierarchy: SystemHierarchy = config.topology().hierarchy
    axes: ParallelismAxes = config.parallelism()
    matrix = ParallelismMatrix(
        hierarchy, axes, tuple(tuple(row) for row in data["entries"])
    )
    programs = [
        ProgramResult(
            label=p["label"],
            mnemonic=p["mnemonic"],
            size=p["size"],
            num_steps=p["num_steps"],
            predicted_seconds=p["predicted_seconds"],
            measured_seconds=p["measured_seconds"],
            is_default_all_reduce=p["is_default_all_reduce"],
        )
        for p in data["programs"]
    ]
    return MatrixResult(
        matrix=matrix,
        programs=programs,
        synthesis_seconds=data["synthesis_seconds"],
    )


# --------------------------------------------------------------------------- #
# Per-scenario records (the JSONL checkpoint format of SweepRunner.run_stream)
# --------------------------------------------------------------------------- #
def result_to_record(result: SweepResult, query: Optional[Dict] = None) -> Dict:
    """One self-contained JSONL record for one scenario's result.

    ``query`` is the scenario's canonical ``PlanQuery.to_dict()``; resume
    matches records by (scenario name, query), so a renamed or re-shaped
    scenario is recomputed rather than wrongly restored.
    """
    return {
        "format_version": SWEEP_RECORD_VERSION,
        "scenario": result.config.name,
        "config": _config_to_dict(result.config),
        "query": query,
        "provenance": result.provenance(),
        "baseline_speedups": result.baseline_speedups,
        "matrices": [_matrix_to_dict(m) for m in result.matrices],
    }


def result_from_record(data: Dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` from :func:`result_to_record` output."""
    version = data.get("format_version")
    if version != SWEEP_RECORD_VERSION:
        raise EvaluationError(
            f"unsupported sweep-record format version {version!r} "
            f"(expected {SWEEP_RECORD_VERSION})"
        )
    config = _config_from_dict(data["config"])
    matrices = [_matrix_from_dict(m, config) for m in data["matrices"]]
    provenance = data.get("provenance", {})
    return SweepResult(
        config=config,
        matrices=matrices,
        synthesis_seconds=provenance.get("synthesis_seconds", 0.0),
        prediction_seconds=provenance.get("evaluation_seconds", 0.0),
        measurement_seconds=provenance.get("measurement_seconds", 0.0),
        cache_tier=provenance.get("cache_tier"),
        fingerprint=provenance.get("fingerprint"),
        planner_seconds=provenance.get("planner_seconds", 0.0),
        profile_hits=provenance.get("profile_hits", 0),
        profile_misses=provenance.get("profile_misses", 0),
        search=provenance.get("search"),
        synthesis_stats=provenance.get("synthesis_stats"),
        baseline_speedups=data.get("baseline_speedups"),
        trace_id=provenance.get("trace_id"),
    )


def load_jsonl_results(path: Union[str, Path]) -> List[SweepResult]:
    """Load every record of a :meth:`SweepRunner.run_stream` JSONL checkpoint.

    The last record wins for a repeated scenario name (a resumed sweep whose
    query changed appends a superseding record); order follows first
    appearance.
    """
    by_name: Dict[str, SweepResult] = {}
    for record in iter_jsonl_records(path):
        by_name[record.get("scenario", "")] = result_from_record(record)
    return list(by_name.values())


def iter_jsonl_records(path: Union[str, Path]) -> Iterator[Dict]:
    """Parsed records of a JSONL checkpoint, skipping lines that do not parse.

    Lines are decoded one by one, so a torn trailing line (an interrupted
    writer), bytes that are not UTF-8 or nesting past the parser's depth
    each cost one line, never the load.
    """
    with open(path, "rb") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError
                continue
            if isinstance(record, dict):
                yield record

"""Predictor accuracy (paper Table 5).

The paper asks: if we rank all (parallelism matrix, program) candidates of an
experiment by the simulator's prediction, does the truly fastest candidate
(by measurement) appear among the top k predictions?  Table 5 reports the
fraction of experiments for which the answer is yes, for several k, per GPU
system and overall.

Here "measurement" is the flow-level testbed simulator, which uses a
different model than the analytic predictor (see
:mod:`repro.runtime.events`), so the comparison is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.evaluation.runner import SweepResult

__all__ = ["AccuracyReport", "top_k_accuracy", "accuracy_table", "rank_of_measured_best"]

DEFAULT_TOP_KS: Tuple[int, ...] = (1, 2, 3, 5, 6, 10)


def _candidate_times(result: SweepResult) -> List[Tuple[float, float]]:
    """All (predicted, measured) pairs of one experiment; requires measurements."""
    pairs: List[Tuple[float, float]] = []
    for _, program in result.iter_programs():
        if program.measured_seconds is None:
            raise EvaluationError(
                "accuracy evaluation needs measured times; run the sweep with "
                "measure_programs=True"
            )
        pairs.append((program.predicted_seconds, program.measured_seconds))
    return pairs


def rank_of_measured_best(result: SweepResult) -> Optional[int]:
    """1-based rank (by prediction) of the measured-fastest candidate.

    Returns ``None`` for degenerate experiments with fewer than two candidates.
    """
    pairs = _candidate_times(result)
    if len(pairs) < 2:
        return None
    best_index = min(range(len(pairs)), key=lambda i: pairs[i][1])
    best_prediction = pairs[best_index][0]
    # Rank = how many candidates the simulator considers at least as good.
    rank = sum(1 for predicted, _ in pairs if predicted <= best_prediction)
    return max(rank, 1)


@dataclass(frozen=True)
class AccuracyReport:
    """Top-k accuracy aggregated over a set of experiments."""

    num_experiments: int
    top_k: Dict[int, float]
    ranks: Tuple[int, ...]

    def accuracy(self, k: int) -> float:
        if k not in self.top_k:
            raise EvaluationError(f"top-{k} accuracy was not computed")
        return self.top_k[k]


def top_k_accuracy(
    results: Sequence[SweepResult], top_ks: Sequence[int] = DEFAULT_TOP_KS
) -> AccuracyReport:
    """Compute top-k accuracy over ``results`` for each k in ``top_ks``."""
    ranks: List[int] = []
    for result in results:
        rank = rank_of_measured_best(result)
        if rank is not None:
            ranks.append(rank)
    if not ranks:
        raise EvaluationError("no experiment had enough candidates for accuracy evaluation")
    accuracies = {
        k: sum(1 for rank in ranks if rank <= k) / len(ranks) for k in top_ks
    }
    return AccuracyReport(num_experiments=len(ranks), top_k=accuracies, ranks=tuple(ranks))


def accuracy_table(
    results_by_system: Dict[str, Sequence[SweepResult]],
    top_ks: Sequence[int] = DEFAULT_TOP_KS,
) -> List[List[object]]:
    """Rows of Table 5: one row per system plus a ``Total`` row."""
    rows: List[List[object]] = []
    all_results: List[SweepResult] = []
    for system, results in results_by_system.items():
        all_results.extend(results)
        report = top_k_accuracy(results, top_ks)
        rows.append([system] + [report.accuracy(k) * 100 for k in top_ks])
    total = top_k_accuracy(all_results, top_ks)
    rows.append(["Total"] + [total.accuracy(k) * 100 for k in top_ks])
    return rows

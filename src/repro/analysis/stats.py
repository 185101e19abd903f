"""Aggregate statistics over sweep results.

The paper's abstract summarises its evaluation as: "for 69% of parallelism
placements and user requested reductions, our framework synthesizes programs
that outperform the default all-reduce implementation (max 2.04x, average
1.27x)".  :func:`summarize_results` computes exactly those aggregates (plus a
few more) over any set of sweep results, so the reproduction's numbers can be
placed side by side with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import EvaluationError
from repro.evaluation.runner import SweepResult

__all__ = ["SpeedupSummary", "summarize_results"]


@dataclass(frozen=True)
class SpeedupSummary:
    """Speedup statistics over a set of (configuration, matrix) mappings."""

    num_configurations: int
    num_mappings: int
    num_outperforming: int
    average_speedup_outperforming: float
    average_speedup_all: float
    max_speedup: float
    max_speedup_matrix: str
    median_speedup: float

    @property
    def fraction_outperforming(self) -> float:
        if self.num_mappings == 0:
            return 0.0
        return self.num_outperforming / self.num_mappings

    def describe(self) -> str:
        return (
            f"{self.num_mappings} mappings over {self.num_configurations} configurations; "
            f"synthesized programs outperform AllReduce for "
            f"{self.fraction_outperforming * 100:.0f}% of mappings "
            f"(average {self.average_speedup_outperforming:.2f}x over those, "
            f"max {self.max_speedup:.2f}x on {self.max_speedup_matrix}); "
            f"paper: 69%, average 1.27x, max 2.04x"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    if n % 2 == 1:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def summarize_results(
    results: Sequence[SweepResult], outperform_threshold: float = 1.05
) -> SpeedupSummary:
    """Compute the abstract-style speedup summary over ``results``.

    A mapping counts as "outperforming" when its best synthesized program is
    at least ``outperform_threshold`` times faster than the default AllReduce
    (5% by default, to avoid counting noise-level wins).
    """
    if not results:
        raise EvaluationError("summarize_results needs at least one sweep result")
    speedups: List[Tuple[float, str]] = []
    for result in results:
        for matrix in result.matrices:
            baseline = matrix.all_reduce
            if baseline is None or baseline.evaluation_seconds <= 0:
                continue
            speedup = matrix.speedup_over_all_reduce()
            if speedup is None:
                continue
            speedups.append((speedup, matrix.matrix_description))
    if not speedups:
        raise EvaluationError("no mappings with a measurable AllReduce baseline")

    values = [s for s, _ in speedups]
    outperforming = [s for s in values if s >= outperform_threshold]
    max_speedup, max_matrix = max(speedups, key=lambda pair: pair[0])
    return SpeedupSummary(
        num_configurations=len(results),
        num_mappings=len(values),
        num_outperforming=len(outperforming),
        average_speedup_outperforming=(
            sum(outperforming) / len(outperforming) if outperforming else 1.0
        ),
        average_speedup_all=sum(values) / len(values),
        max_speedup=max_speedup,
        max_speedup_matrix=max_matrix,
        median_speedup=_median(values),
    )

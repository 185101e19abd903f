"""Choosing one placement for several reductions at once.

The planner evaluates every parallelism matrix against every requested
reduction:

* :func:`plan_placements` issues one :class:`~repro.query.PlanQuery` per
  reduction to any :class:`~repro.query.Planner` (a :class:`~repro.api.P2`
  or a caching planning service, whose shape memo and cache it then
  shares), and for each (matrix, reduction) pair keeps the cheapest ranked
  strategy (together with the default AllReduce for reference);
* each reduction carries a *weight* — how many times it runs per training
  step — so the per-placement objective is the weighted sum of the best
  per-reduction times;
* placements are ranked by that objective.

This is exactly the workflow §4.1 of the paper argues for when it notes that
"models with multiple parallelism forms involve reductions across both axes,
and the selection of a mapping should take all of them into account".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.hierarchy.matrix import ParallelismMatrix
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import Planner, PlanQuery
from repro.synthesis.lowering import LoweredProgram
from repro.utils.tabulate import format_table

__all__ = [
    "WeightedReduction",
    "ReductionChoice",
    "PlacementEvaluation",
    "MultiReductionPlan",
    "plan_placements",
]


@dataclass(frozen=True)
class WeightedReduction:
    """One reduction the training step performs, with its payload and frequency."""

    name: str
    request: ReductionRequest
    bytes_per_device: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise EvaluationError("a weighted reduction needs a name")
        if self.bytes_per_device <= 0:
            raise EvaluationError(f"reduction {self.name!r} needs a positive payload")
        if self.weight <= 0:
            raise EvaluationError(f"reduction {self.name!r} needs a positive weight")


@dataclass(frozen=True)
class ReductionChoice:
    """The strategy chosen for one reduction under one placement."""

    reduction: WeightedReduction
    program: LoweredProgram
    mnemonic: str
    seconds: float
    all_reduce_seconds: float

    @property
    def speedup_over_all_reduce(self) -> float:
        if self.seconds <= 0:
            return 1.0
        return self.all_reduce_seconds / self.seconds

    @property
    def weighted_seconds(self) -> float:
        return self.seconds * self.reduction.weight


@dataclass(frozen=True)
class PlacementEvaluation:
    """One parallelism matrix with the best strategy per reduction."""

    matrix: ParallelismMatrix
    choices: Tuple[ReductionChoice, ...]

    @property
    def total_seconds(self) -> float:
        """Weighted communication time per training step under this placement."""
        return sum(choice.weighted_seconds for choice in self.choices)

    @property
    def total_all_reduce_seconds(self) -> float:
        return sum(
            choice.all_reduce_seconds * choice.reduction.weight for choice in self.choices
        )

    def choice_for(self, name: str) -> ReductionChoice:
        for choice in self.choices:
            if choice.reduction.name == name:
                return choice
        raise EvaluationError(f"no reduction named {name!r} in this evaluation")


@dataclass
class MultiReductionPlan:
    """All placements ranked by their combined reduction cost."""

    axes: ParallelismAxes
    reductions: Tuple[WeightedReduction, ...]
    algorithm: NCCLAlgorithm
    placements: List[PlacementEvaluation]

    @property
    def best(self) -> PlacementEvaluation:
        if not self.placements:
            raise EvaluationError("the plan contains no placements")
        return self.placements[0]

    def placement_for(self, matrix: ParallelismMatrix) -> PlacementEvaluation:
        for evaluation in self.placements:
            if evaluation.matrix == matrix:
                return evaluation
        raise EvaluationError(f"matrix {matrix.describe()} not in this plan")

    def advantage_over_single_axis_choice(self) -> float:
        """How much worse the combined cost gets if the placement is chosen by
        looking only at the single most expensive reduction (a common heuristic)."""
        if not self.placements:
            raise EvaluationError("the plan contains no placements")
        heaviest = max(
            self.reductions,
            key=lambda reduction: reduction.bytes_per_device * reduction.weight,
        )
        best_for_heaviest = min(
            self.placements,
            key=lambda evaluation: evaluation.choice_for(heaviest.name).seconds,
        )
        if self.best.total_seconds <= 0:
            return 1.0
        return best_for_heaviest.total_seconds / self.best.total_seconds

    def describe(self, top_k: int = 5) -> str:
        rows = []
        for evaluation in self.placements[:top_k]:
            row: List[object] = [evaluation.matrix.describe()]
            for choice in evaluation.choices:
                row.append(choice.seconds * 1e3)
                row.append(choice.mnemonic)
            row.append(evaluation.total_seconds * 1e3)
            rows.append(row)
        headers = ["placement"]
        for reduction in self.reductions:
            headers.extend([f"{reduction.name} (ms)", "strategy"])
        headers.append("weighted total (ms)")
        return format_table(
            headers,
            rows,
            title=f"Placement plan for {self.axes.describe()} ({self.algorithm})",
            float_fmt="{:.2f}",
        )


def plan_placements(
    planner: Planner,
    axes: ParallelismAxes,
    reductions: Sequence[WeightedReduction],
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    max_matrices: Optional[int] = None,
    max_program_size: int = 3,
) -> MultiReductionPlan:
    """Rank every placement of ``axes`` by its weighted cost over ``reductions``.

    ``planner`` is anything satisfying :class:`~repro.query.Planner` — a
    :class:`repro.api.P2` or a :class:`~repro.service.engine.PlanningService`,
    whose shape memo and plan cache then serve repeated multi-reduction
    planning over the same axes.  One query is issued per reduction; each
    placement's choice is the cheapest ranked strategy for its matrix in that
    reduction's plan.
    """
    if not reductions:
        raise EvaluationError("at least one reduction is required")
    names = [r.name for r in reductions]
    if len(set(names)) != len(names):
        raise EvaluationError(f"reduction names must be unique, got {names}")
    for reduction in reductions:
        reduction.request.validate_against(axes)
    outcomes = planner.plan_many(
        [
            PlanQuery(
                axes=axes,
                request=reduction.request,
                bytes_per_device=reduction.bytes_per_device,
                algorithm=algorithm,
                max_matrices=max_matrices,
                max_program_size=max_program_size,
            )
            for reduction in reductions
        ]
    )
    evaluations: List[PlacementEvaluation] = []
    for candidate in outcomes[0].plan.candidates:
        matrix = candidate.matrix
        choices: List[ReductionChoice] = []
        for reduction, outcome in zip(reductions, outcomes):
            ranked = outcome.plan.strategies_for_matrix(matrix)
            if not ranked:
                raise EvaluationError(
                    f"planner returned no strategies for placement "
                    f"{matrix.describe()} and reduction {reduction.name!r}"
                )
            best = ranked[0]  # plans are sorted by predicted time
            default = outcome.plan.default_all_reduce(matrix)
            choices.append(
                ReductionChoice(
                    reduction=reduction,
                    program=best.program,
                    # A reduction over size-1 axes moves nothing: no strategy.
                    mnemonic=best.mnemonic if best.program.num_steps else "-",
                    seconds=best.predicted_seconds,
                    all_reduce_seconds=default.predicted_seconds,
                )
            )
        evaluations.append(PlacementEvaluation(matrix=matrix, choices=tuple(choices)))
    evaluations.sort(key=lambda evaluation: evaluation.total_seconds)
    return MultiReductionPlan(
        axes=axes,
        reductions=tuple(reductions),
        algorithm=algorithm,
        placements=evaluations,
    )

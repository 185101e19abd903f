"""Tests for repro.planner (multi-reduction placement planning)."""

from __future__ import annotations

import pytest

from repro.api import P2
from repro.errors import EvaluationError, ReproError, SynthesisError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.planner import WeightedReduction, plan_placements
from repro.topology.gcp import a100_system

MB = 1 << 20


@pytest.fixture(scope="module")
def planner():
    return P2(a100_system(num_nodes=4))


@pytest.fixture(scope="module")
def plan(planner):
    axes = ParallelismAxes.of(4, 16, names=("data", "shard"))
    reductions = [
        WeightedReduction("gradients", ReductionRequest.over(0), 512 * MB, weight=1.0),
        WeightedReduction("activations", ReductionRequest.over(1), 64 * MB, weight=4.0),
    ]
    return plan_placements(planner, axes, reductions)


class TestWeightedReduction:
    def test_validation(self):
        with pytest.raises(EvaluationError):
            WeightedReduction("", ReductionRequest.over(0), 1)
        with pytest.raises(EvaluationError):
            WeightedReduction("g", ReductionRequest.over(0), 0)
        with pytest.raises(EvaluationError):
            WeightedReduction("g", ReductionRequest.over(0), 1, weight=0)


class TestPlanPlacements:
    def test_plan_covers_every_matrix(self, plan):
        assert len(plan.placements) == 3
        matrices = {p.matrix.describe() for p in plan.placements}
        assert matrices == {"[[1 4] [4 4]]", "[[2 2] [2 8]]", "[[4 1] [1 16]]"}

    def test_placements_sorted_by_combined_cost(self, plan):
        totals = [p.total_seconds for p in plan.placements]
        assert totals == sorted(totals)
        assert plan.best.total_seconds == totals[0]

    def test_each_choice_not_worse_than_allreduce(self, plan):
        for placement in plan.placements:
            for choice in placement.choices:
                assert choice.seconds <= choice.all_reduce_seconds + 1e-12
                assert choice.speedup_over_all_reduce >= 1.0

    def test_weights_affect_objective(self, plan):
        evaluation = plan.best
        expected = sum(
            c.seconds * c.reduction.weight for c in evaluation.choices
        )
        assert evaluation.total_seconds == pytest.approx(expected)

    def test_choice_lookup(self, plan):
        evaluation = plan.best
        assert evaluation.choice_for("gradients").reduction.name == "gradients"
        with pytest.raises(EvaluationError):
            evaluation.choice_for("nope")

    def test_best_balances_both_axes(self, plan):
        """The combined-best placement is at least as good as picking the
        placement greedily for the heaviest reduction alone."""
        assert plan.advantage_over_single_axis_choice() >= 1.0

    def test_placement_for(self, plan):
        matrix = plan.best.matrix
        assert plan.placement_for(matrix) is plan.best

    def test_describe(self, plan):
        text = plan.describe(top_k=3)
        assert "gradients" in text and "activations" in text

    def test_argument_validation(self, planner):
        axes = ParallelismAxes.of(4, 16)
        with pytest.raises(EvaluationError):
            plan_placements(planner, axes, [])
        duplicated = [
            WeightedReduction("g", ReductionRequest.over(0), 1 * MB),
            WeightedReduction("g", ReductionRequest.over(1), 1 * MB),
        ]
        with pytest.raises(EvaluationError):
            plan_placements(planner, axes, duplicated)

    def test_singleton_reduction_axis_costs_nothing(self, planner):
        axes = ParallelismAxes.of(1, 64)
        reductions = [WeightedReduction("g", ReductionRequest.over(0), 4 * MB)]
        plan = plan_placements(planner, axes, reductions)
        assert plan.best.total_seconds == 0.0
        # A reduction over a size-1 axis moves nothing: no strategy to name.
        assert plan.best.choices[0].mnemonic == "-"

    def test_axes_without_a_placement_raise_a_synthesis_error(self, planner):
        # 8 x 4 = 32-way parallelism on 64 devices: no parallelism matrix.
        reductions = [WeightedReduction("g", ReductionRequest.over(0), 4 * MB)]
        with pytest.raises(SynthesisError, match="no parallelism matrix") as raised:
            plan_placements(planner, ParallelismAxes.of(8, 4), reductions)
        assert isinstance(raised.value, ReproError)


class TestRetiredSurface:
    def test_node_limit_is_not_a_planner_field(self, planner):
        reductions = [WeightedReduction("g", ReductionRequest.over(0), 4 * MB)]
        with pytest.raises(TypeError):
            plan_placements(planner, ParallelismAxes.of(4, 16), reductions, node_limit=1)

    def test_plan_carries_no_private_pricing_provenance(self, plan):
        assert not hasattr(plan, "provenance")

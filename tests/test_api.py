"""Tests for the high-level P2 API."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import P2
from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.topology.gcp import a100_system

MB = 1 << 20


@pytest.fixture(scope="module")
def plan():
    query = PlanQuery(
        axes=ParallelismAxes.of(8, 4),
        request=ReductionRequest.over(0),
        bytes_per_device=64 * MB,
        max_program_size=3,
    )
    return P2(a100_system(num_nodes=2)).plan(query).plan


@pytest.fixture(scope="module")
def tool():
    return P2(a100_system(num_nodes=2))


class TestOptimize:
    def test_strategies_sorted_by_prediction(self, plan):
        times = [s.predicted_seconds for s in plan.strategies]
        assert times == sorted(times)
        assert plan.best.predicted_seconds == times[0]

    def test_covers_every_matrix(self, plan):
        matrices = {s.matrix.describe() for s in plan.strategies}
        assert matrices == {"[[1 8] [2 2]]", "[[2 4] [1 4]]"}

    def test_default_all_reduce_available(self, plan):
        default = plan.default_all_reduce()
        assert default.is_default_all_reduce
        assert plan.speedup_over_default() >= 1.0

    def test_default_for_specific_matrix(self, plan):
        matrix = plan.strategies[-1].matrix
        default = plan.default_all_reduce(matrix)
        assert default.matrix == matrix

    def test_top_k(self, plan):
        assert len(plan.top(3)) == 3
        assert plan.top(0) == []

    def test_strategies_for_matrix(self, plan):
        matrix = plan.best.matrix
        subset = plan.strategies_for_matrix(matrix)
        assert all(s.matrix == matrix for s in subset)
        assert plan.best in subset

    def test_describe(self, plan):
        text = plan.describe(top_k=3)
        assert "strategies" in text
        assert plan.best.describe()

    def test_best_placement_keeps_reduction_local(self, plan):
        # With 8-way reduction on a 2x16 system the best placement puts the
        # reduction axis inside one node (paper Result 3).
        assert plan.best.matrix.describe() == "[[1 8] [2 2]]"

    def test_invalid_payload_rejected(self):
        with pytest.raises(EvaluationError):
            PlanQuery(ParallelismAxes.of(32), ReductionRequest.over(0), 0)


class TestSpeedupOverDefault:
    """Regression tests: a zero-cost best strategy must not report 1.0x."""

    def test_zero_cost_best_vs_costly_default_is_infinite(self, plan):
        from repro.api import OptimizationPlan

        free = replace(plan.best, predicted_seconds=0.0, is_default_all_reduce=False)
        default = plan.default_all_reduce()
        assert default.predicted_seconds > 0
        degenerate = OptimizationPlan(
            axes=plan.axes,
            request=plan.request,
            bytes_per_device=plan.bytes_per_device,
            algorithm=plan.algorithm,
            strategies=[free, default],
            candidates=plan.candidates,
        )
        assert degenerate.speedup_over_default() == float("inf")

    def test_zero_cost_best_and_zero_cost_default_is_one(self, plan):
        from repro.api import OptimizationPlan

        free = replace(plan.best, predicted_seconds=0.0, is_default_all_reduce=False)
        free_default = replace(plan.default_all_reduce(), predicted_seconds=0.0)
        degenerate = OptimizationPlan(
            axes=plan.axes,
            request=plan.request,
            bytes_per_device=plan.bytes_per_device,
            algorithm=plan.algorithm,
            strategies=[free, free_default],
            candidates=plan.candidates,
        )
        assert degenerate.speedup_over_default() == 1.0

    def test_normal_plan_unchanged(self, plan):
        assert plan.speedup_over_default() >= 1.0
        assert plan.speedup_over_default() != float("inf")


class TestSimulateMeasureVerify:
    def test_simulate_detail(self, tool, plan):
        strategy = plan.default_all_reduce()
        result = tool.simulate(strategy, bytes_per_device=64 * MB)
        assert result.total_seconds > 0
        assert result.num_steps == strategy.program.num_steps

    def test_measure(self, tool, plan):
        strategy = plan.best
        result = tool.measure(strategy, bytes_per_device=16 * MB, num_runs=1)
        assert result.total_seconds > 0

    def test_verify(self, tool, plan):
        report = tool.verify(plan.best, ReductionRequest.over(0))
        assert report.ok

    def test_measure_tree_algorithm(self, tool, plan):
        result = tool.measure(
            plan.best, bytes_per_device=16 * MB, algorithm=NCCLAlgorithm.TREE, num_runs=1
        )
        assert result.algorithm == NCCLAlgorithm.TREE

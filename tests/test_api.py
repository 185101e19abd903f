"""Tests for the high-level P2 API."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import P2, compute_plan
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.errors import EvaluationError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.runtime.events import TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.runtime.verification import verify_against_placement
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
def topology():
    return a100_system(num_nodes=2)


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
    """A ranked strategy feeds the simulator, the testbed and the verifier directly."""

    def test_simulate_detail(self, topology, plan):
        strategy = plan.default_all_reduce()
        result = ProgramSimulator(topology).simulate(strategy.program, 64 * MB)
        assert result.total_seconds > 0
        assert len(result.steps) == strategy.program.num_steps

    def test_measure(self, topology, plan):
        testbed = TestbedSimulator(topology, NoiseModel(seed=0))
        result = testbed.measure(plan.best.program, 16 * MB, num_runs=1)
        assert result.total_seconds > 0

    def test_verify(self, plan):
        report = verify_against_placement(
            plan.best.program, plan.best.candidate.placement, ReductionRequest.over(0)
        )
        assert report.ok

    def test_measure_tree_algorithm(self, topology, plan):
        testbed = TestbedSimulator(topology, NoiseModel(seed=0))
        result = testbed.measure(plan.best.program, 16 * MB, NCCLAlgorithm.TREE, num_runs=1)
        assert result.algorithm == NCCLAlgorithm.TREE


class TestRetiredSurface:
    """The knobs and wrappers the one planner dropped stay dropped."""

    QUERY = PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1 * MB)

    @pytest.mark.parametrize("keyword", ["noise_seed", "validate_lowering", "node_limit"])
    def test_p2_takes_no_pipeline_knobs(self, topology, keyword):
        with pytest.raises(TypeError):
            P2(topology, **{keyword: 1})

    @pytest.mark.parametrize("keyword", ["validate_lowering", "node_limit"])
    def test_sweep_runner_takes_no_pipeline_knobs(self, keyword):
        from repro.evaluation.runner import SweepRunner

        with pytest.raises(TypeError):
            SweepRunner(**{keyword: 1})

    @pytest.mark.parametrize("keyword", ["node_limit", "validate"])
    def test_compute_plan_and_search_space_take_no_pipeline_knobs(self, topology, keyword):
        from repro.search import SearchSpace

        with pytest.raises(TypeError):
            compute_plan(topology, CostModel(), self.QUERY, **{keyword: 1})
        with pytest.raises(TypeError):
            SearchSpace(topology=topology, cost_model=CostModel(), query=self.QUERY,
                        **{keyword: 1})

    def test_plan_takes_no_sources(self, topology):
        with pytest.raises(TypeError):
            P2(topology).plan(self.QUERY, sources=[])

    @pytest.mark.parametrize("name", ["simulate", "measure", "verify", "simulator"])
    def test_p2_has_no_wrappers(self, topology, name):
        assert not hasattr(P2(topology), name)

    def test_the_multi_reduction_planner_class_is_gone(self):
        with pytest.raises(ImportError):
            from repro.planner import MultiReductionPlanner  # noqa: F401

    def test_oracles_and_callerless_code_left_the_package(self):
        """References live in ``tests/oracles``; code no caller reached is gone."""
        import importlib

        import repro.analysis
        from repro.cost.simulator import ProgramSimulator
        from repro.evaluation.tables import build_table3

        for module in ("repro.schedules", "repro.evaluation.simulators", "repro.analysis.compare"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in ("compare_sweeps", "render_summary", "SweepComparison"):
            assert not hasattr(repro.analysis, name)
        assert not hasattr(ProgramSimulator, "simulate_reference")
        with pytest.raises(TypeError):
            build_table3(measured=False)
        with pytest.raises(TypeError):
            build_table3(noise_seed=1)


class TestPackageExports:
    def test_the_package_exports_the_planner_surface(self):
        import repro

        assert repro.__all__ == ["__version__", "P2", "PlanQuery", "PlanOutcome", "Planner"]
        assert repro.P2 is P2 and repro.PlanQuery is PlanQuery
        for retired in ("PlanningService", "SystemHierarchy", "synthesize_all", "Collective"):
            assert retired not in repro.__all__

    def test_import_repro_loads_no_layer(self):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        script = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
            "print(repro.__version__)\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env,
        ).stdout.splitlines()
        assert output[0] == "['repro']"  # repro.synthesis, repro.hierarchy, ... stay out
        from repro._version import __version__

        assert output[1] == __version__

    @pytest.mark.parametrize(
        "module",
        ["repro.semantics", "repro.cost", "repro.api", "repro.service", "repro.serve", "repro.search"],
    )
    def test_import_repro_semantics_leaves_numpy_out(self, module):
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        script = f"import sys, {module}\nprint('numpy' in sys.modules)\n"
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert output == "False"

"""End-to-end integration tests tied to the paper's headline claims.

Each test exercises the whole stack (placement synthesis → program synthesis
→ lowering → simulation/measurement) and checks the *shape* of a result the
paper reports.  Payloads are scaled down so the module runs in seconds; the
claims checked here are relative (orderings, speedups), which are unaffected
by linear payload scaling in the bandwidth-dominated regime.
"""

from __future__ import annotations

import pytest

from repro.api import P2
from repro.baselines.allreduce import default_all_reduce
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import simulate_program
from repro.evaluation.config import ExperimentConfig, SystemKind
from repro.evaluation.runner import SweepRunner
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.query import PlanQuery
from repro.runtime.verification import verify_against_placement
from repro.topology.gcp import a100_system, v100_system

GIB = float(1 << 30)


class TestResult1PlacementImpact:
    """Result 1: AllReduce performance differs enormously across parallelism matrices."""

    def test_a100_4node_b_row(self):
        system = a100_system(num_nodes=4)
        axes = ParallelismAxes.of(4, 16)
        request = ReductionRequest.over(0)
        times = {}
        for matrix in enumerate_parallelism_matrices(system.hierarchy, axes):
            placement = DevicePlacement(matrix)
            program = default_all_reduce(placement, request)
            times[matrix.describe()] = simulate_program(
                program, system, 2 * GIB, NCCLAlgorithm.TREE
            ).total_seconds
        # B1-like placement (reduction inside a node) vs B3-like (across nodes):
        # the paper reports a 448x gap; we only require "orders of magnitude".
        assert times["[[4 1] [1 16]]"] / times["[[1 4] [4 4]]"] > 50

    def test_placement_good_for_one_axis_is_bad_for_the_other(self):
        system = a100_system(num_nodes=4)
        axes = ParallelismAxes.of(4, 16)
        matrices = {
            m.describe(): DevicePlacement(m)
            for m in enumerate_parallelism_matrices(system.hierarchy, axes)
        }
        b1, b3 = matrices["[[1 4] [4 4]]"], matrices["[[4 1] [1 16]]"]

        def time_for(placement, axis):
            program = default_all_reduce(placement, ReductionRequest.over(axis))
            return simulate_program(program, system, 2 * GIB).total_seconds

        # B1 wins for axis 0, B3 wins for axis 1 (the paper's trade-off).
        assert time_for(b1, 0) < time_for(b3, 0)
        assert time_for(b3, 1) < time_for(b1, 1)


class TestResult3And5SynthesizedPrograms:
    """Results 3 & 5: intra-node reductions keep AllReduce; cross-node reductions
    benefit from synthesized hierarchical strategies."""

    @pytest.fixture(scope="class")
    def sweep(self):
        config = ExperimentConfig(
            name="claims-a100-2n-4x8",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(4, 8),
            reduction_axes=(0,),
            payload_scale=0.01,
            max_program_size=3,
        )
        return SweepRunner(measurement_runs=1).run(config)

    def test_cross_node_matrix_gets_speedup(self, sweep):
        cross = next(m for m in sweep.matrices if m.matrix_description == "[[2 2] [1 8]]")
        assert cross.speedup_over_all_reduce() > 1.1

    def test_intra_node_matrix_keeps_allreduce_optimal(self, sweep):
        local = next(m for m in sweep.matrices if m.matrix_description == "[[1 4] [2 4]]")
        assert local.speedup_over_all_reduce() < 1.25

    def test_speedups_within_paper_range(self, sweep):
        for matrix in sweep.matrices:
            speedup = matrix.speedup_over_all_reduce()
            assert 0.99 <= speedup <= 3.0  # paper: 1.0x .. 2.04x


class TestEndToEndPlanQuality:
    def test_optimizer_places_reduction_locally_when_possible(self):
        p2 = P2(v100_system(num_nodes=2))
        plan = p2.plan(
            PlanQuery(
                axes=ParallelismAxes.of(8, 2),
                request=ReductionRequest.over(0),
                bytes_per_device=32 << 20,
                max_program_size=3,
            )
        ).plan
        # Reduction of size 8 fits into one 8-GPU node; the best strategy is a
        # local AllReduce on the placement that keeps the axis inside a node.
        assert plan.best.matrix.describe() == "[[1 8] [2 1]]"
        assert plan.best.predicted_seconds < plan.default_all_reduce().predicted_seconds * 1.01

    def test_every_top_strategy_verifies_numerically(self):
        p2 = P2(a100_system(num_nodes=2))
        request = ReductionRequest.over(0)
        plan = p2.plan(
            PlanQuery(ParallelismAxes.of(4, 8), request, 16 << 20, max_program_size=3)
        ).plan
        for strategy in plan.top(5):
            if strategy.program.num_steps == 0:
                continue
            assert verify_against_placement(
                strategy.program, strategy.candidate.placement, request
            ).ok

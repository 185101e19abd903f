"""Additional edge-case coverage across modules.

These tests target behaviours not exercised elsewhere: degenerate reduction
requests, collapsed vs. uncollapsed reduction hierarchies producing the same
lowered strategies, contention on the deeper Figure 2a machine, prediction-only
sweep serialization, and report rendering corner cases.
"""

from __future__ import annotations

import dataclasses
import json

from repro.analysis import result_from_record, result_to_record
from repro.baselines.allreduce import default_all_reduce
from repro.cost.contention import analyze_step_contention
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import simulate_program
from repro.evaluation.config import ExperimentConfig, SystemKind
from repro.evaluation.runner import SweepRunner
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.collectives import Collective
from repro.synthesis.hierarchy import HierarchyVariant, build_synthesis_hierarchy
from repro.synthesis.lowering import LoweredStep, lower_synthesized
from repro.synthesis.synthesizer import synthesize_programs

MB = 1 << 20


class TestDegenerateReductions:
    def test_reduction_axis_of_size_one_needs_no_communication(self, figure2a_hierarchy):
        axes = ParallelismAxes.of(1, 16)
        matrix = enumerate_parallelism_matrices(figure2a_hierarchy, axes)[0]
        placement = DevicePlacement(matrix)
        request = ReductionRequest.over(0)
        program = default_all_reduce(placement, request)
        assert program.num_steps == 0
        assert program.validates_against(placement, request)

    def test_all_axes_reduced_gives_single_group(self, figure2d_placement):
        request = ReductionRequest.over(0, 1)
        groups = figure2d_placement.reduction_groups(request)
        assert len(groups) == 1
        program = default_all_reduce(figure2d_placement, request)
        assert program.steps[0].group_size == 16


class TestCollapsedVersusUncollapsed:
    def test_collapsing_respects_hardware_boundaries(self, figure2a_hierarchy):
        """Collapsing same-level factors (paper §2.5) keeps the canonical
        strategies and additionally enables groupings aligned with hardware
        levels that the uncollapsed row-major ordering cannot slice out.

        Group members may be ordered differently by the two variants, so the
        comparison normalises each group to its root plus its member set.
        """
        axes = ParallelismAxes.of(4, 4)
        request = ReductionRequest.over(0, 1)
        matrix = enumerate_parallelism_matrices(figure2a_hierarchy, axes)[0]
        placement = DevicePlacement(matrix)

        def normalised(lowered):
            return tuple(
                (
                    step.collective.value,
                    frozenset((group[0], frozenset(group)) for group in step.groups),
                )
                for step in lowered.steps
            )

        def lowered_set(variant):
            hierarchy = build_synthesis_hierarchy(matrix, request, variant)
            result = synthesize_programs(hierarchy, max_program_size=2)
            return {
                normalised(lower_synthesized(p, hierarchy, placement))
                for p in result.programs
            }

        collapsed = lowered_set(HierarchyVariant.REDUCTION_COLLAPSED)
        uncollapsed = lowered_set(HierarchyVariant.REDUCTION)
        # The size-1 and size-2 canonical strategies over the whole group
        # (AllReduce, Reduce-Broadcast, ReduceScatter-AllGather) exist in both.
        shared = collapsed & uncollapsed
        assert len(shared) >= 3
        # Collapsing adds hierarchical patterns whose first step reduces within
        # each server (a hardware boundary), e.g. AllReduce-AllReduce.
        server_groups = frozenset(
            {(0, frozenset(range(0, 8))), (8, frozenset(range(8, 16)))}
        )
        assert any(
            program[0][0] == "AllReduce" and program[0][1] == server_groups
            for program in collapsed
        )
        assert len(collapsed) > len(shared)


class TestFigure2aMachineCosting:
    def test_nic_level_in_the_middle_of_the_hierarchy(self, figure2a_machine):
        # Groups crossing servers load the per-server NICs even though the
        # NIC-owning level is not the root.
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 8), (1, 9), (2, 10), (3, 11)))
        contention = analyze_step_contention(step, figure2a_machine)
        assert all(g.crosses_nic for g in contention.groups)
        assert contention.max_sharing >= 4

    def test_costs_ordered_by_span(self, figure2a_machine):
        request = ReductionRequest.over(1)
        axes = ParallelismAxes.of(4, 4)
        matrices = enumerate_parallelism_matrices(figure2a_machine.hierarchy, axes)
        times = {}
        for matrix in matrices:
            placement = DevicePlacement(matrix)
            program = default_all_reduce(placement, request)
            times[matrix.describe()] = simulate_program(
                program, figure2a_machine, 64 * MB
            ).total_seconds
        # Shards inside one CPU (Figure 2b layout) reduce fastest; shards spread
        # over servers are slower.
        assert times["[[1 2 2 1] [1 1 1 4]]"] < times["[[1 1 2 2] [1 2 1 2]]"]


class TestPredictionOnlySerialization:
    def test_roundtrip_without_measurements(self):
        config = ExperimentConfig(
            name="edge-pred-only",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(32,),
            reduction_axes=(0,),
            payload_scale=0.002,
            max_program_size=2,
        )
        results = SweepRunner(measure_programs=False).run_many([config])
        restored = result_from_record(json.loads(json.dumps(result_to_record(results[0]))))
        program = restored.matrices[0].programs[0]
        assert program.measured_seconds is None
        assert program.evaluation_seconds == program.predicted_seconds


class TestTreeAlgorithmEndToEnd:
    def test_tree_sweep_runs_and_orders_like_ring(self):
        base = ExperimentConfig(
            name="edge-tree",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(4, 8),
            reduction_axes=(0,),
            payload_scale=0.002,
            max_program_size=3,
        )
        runner = SweepRunner(measurement_runs=1)
        ring = runner.run(base)
        tree = runner.run(dataclasses.replace(base, algorithm=NCCLAlgorithm.TREE))
        # Under both algorithms the intra-node placement beats the cross-node one.
        def best_time(result, description):
            matrix = next(m for m in result.matrices if m.matrix_description == description)
            return matrix.best().evaluation_seconds

        for result in (ring, tree):
            assert best_time(result, "[[1 4] [2 4]]") < best_time(result, "[[2 2] [1 8]]")

"""Tests for repro.synthesis.lowering."""

from __future__ import annotations

import pytest

from repro.dsl.forms import InsideGroup, Parallel
from repro.dsl.program import ReductionInstruction, ReductionProgram
from repro.errors import LoweringError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.collectives import Collective
from repro.semantics.goals import initial_context
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import (
    LoweredProgram,
    LoweredStep,
    lower_program,
    lower_synthesized,
)
from repro.synthesis.synthesizer import synthesize_programs


class TestLoweredStepValidation:
    def test_valid_step(self):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 1), (2, 3)))
        assert step.num_groups == 2 and step.group_size == 2
        assert step.devices == frozenset({0, 1, 2, 3})

    def test_rejects_empty_groups(self):
        with pytest.raises(LoweringError):
            LoweredStep(Collective.ALL_REDUCE, ())

    def test_rejects_singleton_group(self):
        with pytest.raises(LoweringError):
            LoweredStep(Collective.ALL_REDUCE, ((0,),))

    def test_rejects_overlapping_groups(self):
        with pytest.raises(LoweringError):
            LoweredStep(Collective.ALL_REDUCE, ((0, 1), (1, 2)))

    def test_describe_previews_groups(self):
        step = LoweredStep(Collective.REDUCE, tuple((2 * i, 2 * i + 1) for i in range(8)))
        assert "..." in step.describe()


SHARED_STEP = LoweredStep(Collective.ALL_REDUCE, ((0, 5),))


class TestLoweredProgramValidation:
    @pytest.mark.parametrize(
        "step, num_devices, in_range",
        [
            (SHARED_STEP, 4, False),  # an id too large
            (LoweredStep(Collective.ALL_REDUCE, ((-1, 2),)), 4, False),  # a negative id
            # One step object shared by two programs: the bounds are cached on
            # the step, the verdict is each program's own.
            (SHARED_STEP, 6, True),
            (SHARED_STEP, 4, False),
        ],
    )
    def test_device_range_checked(self, step, num_devices, in_range):
        if in_range:
            assert LoweredProgram(num_devices=num_devices, steps=(step,)).steps == (step,)
        else:
            with pytest.raises(LoweringError, match="out of range"):
                LoweredProgram(num_devices=num_devices, steps=(step,))

    def test_signature_is_step_order_sensitive(self):
        s1 = LoweredStep(Collective.REDUCE, ((0, 1),))
        s2 = LoweredStep(Collective.BROADCAST, ((0, 1),))
        a = LoweredProgram(2, (s1, s2))
        b = LoweredProgram(2, (s2, s1))
        assert a.signature() != b.signature()

    def test_signature_is_group_order_insensitive(self):
        a = LoweredProgram(4, (LoweredStep(Collective.ALL_REDUCE, ((0, 1), (2, 3))),))
        b = LoweredProgram(4, (LoweredStep(Collective.ALL_REDUCE, ((2, 3), (0, 1))),))
        assert a.signature() == b.signature()

    def test_run_semantics_and_iteration(self):
        program = LoweredProgram(
            2, (LoweredStep(Collective.ALL_REDUCE, ((0, 1),)),), label="test"
        )
        final = program.run_semantics(initial_context(2))
        assert final[0].row(0) == 0b11
        assert len(program) == 1 and list(program)[0].collective == Collective.ALL_REDUCE
        assert "test" in program.describe()


class TestLoweringFigure2d:
    def test_lowered_blueconnect_covers_all_devices(
        self, figure2d_synthesis_hierarchy, figure2d_placement, shard_reduction
    ):
        program = ReductionProgram.of(
            ReductionInstruction(2, InsideGroup(), Collective.REDUCE_SCATTER),
            ReductionInstruction(2, Parallel(0), Collective.ALL_REDUCE),
            ReductionInstruction(2, InsideGroup(), Collective.ALL_GATHER),
        )
        lowered = lower_program(program, figure2d_synthesis_hierarchy, figure2d_placement)
        assert lowered.num_steps == 3
        # Every step touches all 16 devices (4 replicas of the 4-device pattern).
        for step in lowered.steps:
            assert step.devices == frozenset(range(16))
        assert lowered.validates_against(figure2d_placement, shard_reduction)

    def test_lowering_replicates_per_free_assignment(
        self, figure2d_synthesis_hierarchy, figure2d_placement
    ):
        program = ReductionProgram.single_all_reduce()
        lowered = lower_program(program, figure2d_synthesis_hierarchy, figure2d_placement)
        # One AllReduce group per non-reduction (data) replica: 4 groups of 4.
        assert lowered.steps[0].num_groups == 4
        assert lowered.steps[0].group_size == 4

    def test_lowering_rejects_mismatched_placement(
        self, figure2d_synthesis_hierarchy, figure2_matrices
    ):
        other = next(m for m in figure2_matrices if m.entries == ((1, 2, 2, 1), (1, 1, 1, 4)))
        program = ReductionProgram.single_all_reduce()
        with pytest.raises(LoweringError):
            lower_program(program, figure2d_synthesis_hierarchy, DevicePlacement(other))

    def test_lowering_rejects_groupless_instruction(
        self, figure2d_synthesis_hierarchy, figure2d_placement
    ):
        # Slicing at the leaf level yields no group of size >= 2.
        program = ReductionProgram.of(
            ReductionInstruction(4, InsideGroup(), Collective.ALL_REDUCE)
        )
        with pytest.raises(LoweringError):
            lower_program(program, figure2d_synthesis_hierarchy, figure2d_placement)


class TestLoweringAllSynthesizedPrograms:
    def test_every_synthesized_program_lowers_and_validates(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 4], ["node", "gpu"])
        axes = ParallelismAxes.of(4, 2)
        request = ReductionRequest.over(0)
        for matrix in enumerate_parallelism_matrices(hierarchy, axes):
            placement = DevicePlacement(matrix)
            synthesis_hierarchy = build_synthesis_hierarchy(matrix, request)
            result = synthesize_programs(synthesis_hierarchy, max_program_size=3)
            for synthesized in result.programs:
                lowered = lower_synthesized(synthesized, synthesis_hierarchy, placement)
                assert lowered.validates_against(placement, request), (
                    matrix.describe(),
                    synthesized.describe(synthesis_hierarchy.names),
                )

    def test_lowered_signatures_distinguish_strategies(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 2], ["node", "gpu"])
        axes = ParallelismAxes.of(4)
        matrix = enumerate_parallelism_matrices(hierarchy, axes)[0]
        placement = DevicePlacement(matrix)
        synthesis_hierarchy = build_synthesis_hierarchy(matrix, ReductionRequest.over(0))
        result = synthesize_programs(synthesis_hierarchy, max_program_size=3)
        signatures = {
            lower_synthesized(p, synthesis_hierarchy, placement).signature()
            for p in result.programs
        }
        assert len(signatures) > 1

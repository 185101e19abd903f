"""Tests for repro.synthesis.pipeline (the end-to-end P2 front end)."""

from __future__ import annotations

import pytest

from repro.errors import SynthesisError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.synthesis.pipeline import synthesize_all


@pytest.fixture(scope="module")
def small_system():
    return SystemHierarchy.from_cardinalities([2, 4], ["node", "gpu"])


class TestSynthesizeAll:
    def test_candidates_cover_every_matrix(self, small_system):
        candidates = synthesize_all(
            small_system, ParallelismAxes.of(4, 2), ReductionRequest.over(0),
            max_program_size=3,
        )
        descriptions = {c.matrix.describe() for c in candidates}
        assert descriptions == {"[[1 4] [2 1]]", "[[2 2] [1 2]]"}

    def test_every_candidate_has_programs_and_default(self, small_system):
        candidates = synthesize_all(
            small_system, ParallelismAxes.of(8), ReductionRequest.over(0),
            max_program_size=3,
        )
        assert len(candidates) == 1
        candidate = candidates[0]
        assert candidate.num_programs > 1
        default = candidate.default_program
        assert default is not None and default.is_default_all_reduce
        assert default.lowered.num_steps == 1

    def test_candidate_describe(self, small_system):
        candidates = synthesize_all(
            small_system, ParallelismAxes.of(8), ReductionRequest.over(0),
            max_program_size=2,
        )
        assert "programs" in candidates[0].describe()
        assert candidates[0].programs[0].describe()

    def test_max_matrices_cap(self, figure2a_hierarchy, figure2_axes):
        candidates = synthesize_all(
            figure2a_hierarchy, figure2_axes, ReductionRequest.over(1),
            max_program_size=2, max_matrices=2,
        )
        assert len(candidates) == 2

    def test_infeasible_shape_raises(self, small_system):
        with pytest.raises(SynthesisError):
            synthesize_all(small_system, ParallelismAxes.of(3), ReductionRequest.over(0))

    def test_invalid_reduction_axis_raises(self, small_system):
        with pytest.raises(Exception):
            synthesize_all(small_system, ParallelismAxes.of(8), ReductionRequest.over(3))

    def test_all_lowered_programs_validate(self, small_system):
        candidates = synthesize_all(
            small_system, ParallelismAxes.of(4, 2), ReductionRequest.over(1),
            max_program_size=3,
        )
        request = ReductionRequest.over(1)
        for candidate in candidates:
            for program in candidate.programs:
                assert program.lowered.validates_against(candidate.placement, request)

    def test_synthesis_time_recorded(self, small_system):
        candidates = synthesize_all(
            small_system, ParallelismAxes.of(8), ReductionRequest.over(0),
            max_program_size=3,
        )
        assert all(c.synthesis_seconds >= 0 for c in candidates)

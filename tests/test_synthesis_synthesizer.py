"""Tests for the enumerative synthesizer (paper §3.5)."""

from __future__ import annotations

import pytest

from repro.dsl.pretty import program_mnemonic
from repro.errors import SynthesisError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.semantics.collectives import Collective
from repro.synthesis.hierarchy import HierarchyVariant, build_synthesis_hierarchy
from repro.synthesis.pruning import SearchStatistics, context_within_goal
from repro.semantics.goals import all_reduce_goal, initial_context
from repro.semantics.state import DeviceState, StateContext
from repro.synthesis.synthesizer import Synthesizer, synthesize_programs

from oracles.dsl import program_achieves


def two_level_hierarchy(outer: int, inner: int):
    """A [outer, inner] single-axis reduction hierarchy (e.g. nodes x gpus)."""
    hierarchy = SystemHierarchy.from_cardinalities([outer, inner], ["node", "gpu"])
    axes = ParallelismAxes.of(outer * inner)
    matrix = enumerate_parallelism_matrices(hierarchy, axes)[0]
    return build_synthesis_hierarchy(matrix, ReductionRequest.over(0))


class TestSynthesisBasics:
    def test_programs_all_reach_the_goal(self):
        hierarchy = two_level_hierarchy(2, 2)
        result = synthesize_programs(hierarchy, max_program_size=3)
        init = hierarchy.initial_context()
        goal = hierarchy.goal()
        assert result.num_programs > 0
        for synthesized in result.programs:
            assert program_achieves(synthesized.program, init, goal, hierarchy.radices)

    def test_single_all_reduce_is_always_found(self):
        hierarchy = two_level_hierarchy(2, 4)
        result = synthesize_programs(hierarchy, max_program_size=2)
        mnemonics = {program_mnemonic(p.program) for p in result.programs}
        assert "AR" in mnemonics

    def test_blueconnect_and_hierarchical_patterns_found_at_size_3(self):
        hierarchy = two_level_hierarchy(2, 4)
        result = synthesize_programs(hierarchy, max_program_size=3)
        mnemonics = {program_mnemonic(p.program) for p in result.programs}
        # Figure 10(i) and 10(ii) of the paper.
        assert "RS-AR-AG" in mnemonics
        assert "R-AR-B" in mnemonics

    def test_no_duplicate_programs(self):
        hierarchy = two_level_hierarchy(2, 2)
        result = synthesize_programs(hierarchy, max_program_size=4)
        signatures = [p.program.signature() for p in result.programs]
        assert len(signatures) == len(set(signatures))

    def test_programs_sorted_by_size(self):
        hierarchy = two_level_hierarchy(2, 2)
        result = synthesize_programs(hierarchy, max_program_size=4)
        sizes = [p.size for p in result.programs]
        assert sizes == sorted(sizes)

    def test_larger_size_limit_is_superset(self):
        hierarchy = two_level_hierarchy(2, 2)
        small = synthesize_programs(hierarchy, max_program_size=2)
        large = synthesize_programs(hierarchy, max_program_size=3)
        small_sigs = {p.program.signature() for p in small.programs}
        large_sigs = {p.program.signature() for p in large.programs}
        assert small_sigs <= large_sigs
        assert len(large_sigs) > len(small_sigs)

    def test_statistics_are_populated(self):
        hierarchy = two_level_hierarchy(2, 2)
        result = synthesize_programs(hierarchy, max_program_size=3)
        stats = result.statistics
        assert stats.programs_found == result.num_programs
        assert stats.nodes_expanded > 0
        assert stats.steps_attempted >= stats.steps_invalid
        assert sum(stats.per_size_counts.values()) == result.num_programs

    def test_degenerate_single_device_reduction(self):
        # Reduction axis of size 1: nothing to do, no programs.
        hierarchy = SystemHierarchy.from_cardinalities([2, 2], ["node", "gpu"])
        axes = ParallelismAxes.of(1, 4)
        matrix = enumerate_parallelism_matrices(hierarchy, axes)[0]
        synthesis_hierarchy = build_synthesis_hierarchy(matrix, ReductionRequest.over(0))
        result = synthesize_programs(synthesis_hierarchy)
        assert result.num_programs == 0


class TestSynthesizerConfiguration:
    def test_restricted_collective_alphabet(self):
        hierarchy = two_level_hierarchy(2, 2)
        result = synthesize_programs(
            hierarchy, max_program_size=3, collectives=[Collective.ALL_REDUCE]
        )
        for program in result.programs:
            assert {i.collective for i in program.program} == {Collective.ALL_REDUCE}

    def test_node_limit_stops_search(self):
        hierarchy = two_level_hierarchy(4, 4)
        result = synthesize_programs(hierarchy, max_program_size=5, node_limit=5)
        assert result.statistics.hit_node_limit

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SynthesisError):
            Synthesizer(max_program_size=0)
        with pytest.raises(SynthesisError):
            Synthesizer(node_limit=0)

    def test_instruction_alphabet_deduplicates(self):
        hierarchy = two_level_hierarchy(2, 2)
        dedup = Synthesizer(deduplicate_instructions=True).instruction_alphabet(hierarchy)
        raw = Synthesizer(deduplicate_instructions=False).instruction_alphabet(hierarchy)
        assert len(dedup) < len(raw)


class TestPaperScaleBehaviour:
    def test_synthesis_under_two_seconds_for_64_devices(self):
        """Result 2 of the paper: synthesis stays fast even for the largest hierarchy."""
        hierarchy = two_level_hierarchy(4, 16)
        result = synthesize_programs(hierarchy, max_program_size=5)
        assert result.num_programs > 40
        assert result.elapsed_seconds < 10.0  # generous CI margin; paper reports < 2s

    def test_three_level_collapsed_hierarchy(self):
        # [16 2 2] reduced over axes 0 and 2 on a [4 16] system.
        hierarchy = SystemHierarchy.from_cardinalities([4, 16], ["node", "gpu"])
        axes = ParallelismAxes.of(16, 2, 2)
        matrices = enumerate_parallelism_matrices(hierarchy, axes)
        assert matrices
        synthesis_hierarchy = build_synthesis_hierarchy(
            matrices[0], ReductionRequest.over(0, 2), HierarchyVariant.REDUCTION_COLLAPSED
        )
        result = synthesize_programs(synthesis_hierarchy, max_program_size=3)
        assert result.num_programs > 0


class TestPruning:
    def test_context_within_goal(self):
        goal = all_reduce_goal(2)
        assert context_within_goal(initial_context(2), goal)
        # A context where device 0 holds a contribution outside a restricted goal.
        restricted_goal = StateContext(
            (DeviceState.full(2, [0]), DeviceState.full(2, [1]))
        )
        overgrown = StateContext((DeviceState.full(2), DeviceState.full(2, [1])))
        assert not context_within_goal(overgrown, restricted_goal)

    def test_statistics_record(self):
        stats = SearchStatistics()
        stats.record_program(2)
        stats.record_program(2)
        stats.record_program(3)
        assert stats.per_size_counts == {2: 2, 3: 1}

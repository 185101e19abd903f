"""The synthesizer against an unmemoized reference search.

``Synthesizer`` expands each distinct context of a problem once and replays
that expansion wherever the search tree revisits the context; it also answers
a repeated problem from its first run.  The reference below is the plain
tree search it replaced — every visit recomputes every instruction — kept
here, in the tests only, as the specification: same programs in the same
order, same virtual groups, and every ``SearchStatistics`` field equal,
including under a node limit that trips in the middle of the search.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import pytest

from repro.dsl.program import ReductionProgram
from repro.errors import InvalidCollectiveError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.synthesis.hierarchy import HierarchyVariant, build_synthesis_hierarchy
from repro.synthesis.pruning import SearchStatistics, context_within_goal
from repro.synthesis.synthesizer import SynthesizedProgram, Synthesizer

from oracles.dsl import apply_to_groups


def reference_search(
    synthesizer: Synthesizer,
    hierarchy,
    statistics: SearchStatistics,
    max_depth: int,
    emit_size: Optional[int],
    seen_signatures: set,
) -> List[SynthesizedProgram]:
    """One depth-first pass, recomputing every step at every visit."""
    alphabet = synthesizer.instruction_alphabet(hierarchy)
    goal = hierarchy.goal()
    programs: List[SynthesizedProgram] = []
    prefix_instructions, prefix_groups = [], []

    def dfs(context, depth):
        if statistics.nodes_expanded >= synthesizer.node_limit:
            statistics.hit_node_limit = True
            return
        statistics.nodes_expanded += 1
        for instruction, groups in alphabet:
            if statistics.hit_node_limit:
                return
            statistics.steps_attempted += 1
            try:
                next_context = apply_to_groups(instruction, context, groups)
            except InvalidCollectiveError:
                statistics.steps_invalid += 1
                continue
            if not context_within_goal(next_context, goal):
                statistics.branches_pruned_goal += 1
                continue
            prefix_instructions.append(instruction)
            prefix_groups.append(groups)
            if next_context == goal:
                if emit_size is None or depth + 1 == emit_size:
                    program = ReductionProgram(tuple(prefix_instructions))
                    signature = program.signature()
                    if signature in seen_signatures:
                        statistics.duplicate_programs += 1
                    else:
                        seen_signatures.add(signature)
                        programs.append(SynthesizedProgram(program, tuple(prefix_groups)))
                        statistics.record_program(len(program))
            elif depth + 1 < max_depth:
                dfs(next_context, depth + 1)
            prefix_instructions.pop()
            prefix_groups.pop()

    if hierarchy.initial_context() != goal:
        dfs(hierarchy.initial_context(), 0)
    return programs


def reference_synthesize(synthesizer: Synthesizer, hierarchy):
    statistics = SearchStatistics()
    programs = reference_search(
        synthesizer, hierarchy, statistics, synthesizer.max_program_size, None, set()
    )
    programs.sort(key=lambda p: (p.size, p.program.signature()))
    return programs, statistics


def reference_passes(synthesizer: Synthesizer, hierarchy):
    statistics = SearchStatistics()
    seen: set = set()
    batches = []
    if hierarchy.initial_context() == hierarchy.goal():
        return batches, statistics
    for size in range(1, synthesizer.max_program_size + 1):
        if statistics.hit_node_limit:
            break
        batch = reference_search(synthesizer, hierarchy, statistics, size, size, seen)
        batch.sort(key=lambda p: p.program.signature())
        batches.append((size, batch))
    return batches, statistics


def reduction_hierarchy(cardinalities, axes=None, reduce=(0,), variant=None, matrix=0):
    system = SystemHierarchy.from_cardinalities(list(cardinalities))
    total = 1
    for cardinality in cardinalities:
        total *= cardinality
    parallelism = ParallelismAxes.of(*(axes or (total,)))
    matrices = enumerate_parallelism_matrices(system, parallelism)
    request = ReductionRequest(tuple(reduce))
    if variant is None:
        return build_synthesis_hierarchy(matrices[matrix], request)
    return build_synthesis_hierarchy(matrices[matrix], request, variant)


PROBLEMS = {
    "radices-1-2-4": (lambda: reduction_hierarchy((2, 4)), 5),
    "radices-1-4-16": (lambda: reduction_hierarchy((4, 16)), 4),
    "radices-1-2-2-2": (lambda: reduction_hierarchy((2, 2, 2)), 5),
    "radices-1-3-4": (lambda: reduction_hierarchy((3, 4)), 5),
    "system-variant": (
        lambda: reduction_hierarchy(
            (2, 4), axes=(4, 2), reduce=(0,), variant=HierarchyVariant.SYSTEM, matrix=1
        ),
        4,
    ),
    "nothing-to-reduce": (lambda: reduction_hierarchy((2, 2), axes=(1, 4), reduce=(0,)), 3),
}


@pytest.fixture(params=sorted(PROBLEMS))
def problem(request):
    build, size = PROBLEMS[request.param]
    return build(), size


def test_the_named_radices_are_what_they_say():
    assert reduction_hierarchy((2, 4)).radices == (1, 2, 4)
    assert reduction_hierarchy((4, 16)).radices == (1, 4, 16)
    assert reduction_hierarchy((2, 2, 2)).radices == (1, 2, 2, 2)
    assert reduction_hierarchy((3, 4)).radices == (1, 3, 4)


class TestAgainstTheReference:
    def test_single_pass(self, problem):
        hierarchy, size = problem
        synthesizer = Synthesizer(max_program_size=size)
        programs, statistics = reference_synthesize(synthesizer, hierarchy)
        result = synthesizer.synthesize(hierarchy)
        assert result.programs == programs
        assert [p.step_groups for p in result.programs] == [p.step_groups for p in programs]
        assert result.statistics == statistics
        assert result.hierarchy is hierarchy

    def test_iterative_deepening(self, problem):
        hierarchy, size = problem
        synthesizer = Synthesizer(max_program_size=size)
        batches, statistics = reference_passes(synthesizer, hierarchy)
        accumulated = SearchStatistics()
        assert list(synthesizer.iter_synthesize_sizes(hierarchy, accumulated)) == batches
        assert accumulated == statistics
        # The passes after a single-pass run of the same problem replay its
        # expansions; what they count and emit does not change.
        synthesizer.synthesize(hierarchy)
        again = SearchStatistics()
        assert list(synthesizer.iter_synthesize_sizes(hierarchy, again)) == batches
        assert again == statistics

    @pytest.mark.parametrize("node_limit", [1, 2, 7, 23, 60])
    def test_a_node_limit_that_trips_mid_search(self, node_limit):
        hierarchy = reduction_hierarchy((2, 4))
        synthesizer = Synthesizer(max_program_size=5, node_limit=node_limit)
        programs, statistics = reference_synthesize(synthesizer, hierarchy)
        assert statistics.hit_node_limit
        result = synthesizer.synthesize(hierarchy)
        assert result.programs == programs
        assert result.statistics == statistics

        batches, pass_statistics = reference_passes(synthesizer, hierarchy)
        assert pass_statistics.hit_node_limit
        accumulated = SearchStatistics()
        assert list(synthesizer.iter_synthesize_sizes(hierarchy, accumulated)) == batches
        assert accumulated == pass_statistics

    def test_tree_nodes_outnumber_distinct_contexts(self):
        hierarchy = reduction_hierarchy((4, 16))
        synthesizer = Synthesizer(max_program_size=5)
        result = synthesizer.synthesize(hierarchy)
        assert 0 < result.contexts_expanded < result.statistics.nodes_expanded
        assert synthesizer.contexts_expanded == result.contexts_expanded


class TestRepeatedProblems:
    def equal_radices(self):
        # Axis 0 sits on the gpu level in both; axes 1 and 2 swap levels.
        first = reduction_hierarchy((2, 4), axes=(2, 2, 2), matrix=0)
        second = reduction_hierarchy((2, 4), axes=(2, 2, 2), matrix=1)
        assert first.radices == second.radices and first.matrix != second.matrix
        return first, second

    def test_the_second_hierarchy_is_answered_from_the_first(self):
        first, second = self.equal_radices()
        synthesizer = Synthesizer(max_program_size=4)
        one = synthesizer.synthesize(first)
        two = synthesizer.synthesize(second)
        assert one.contexts_expanded > 0 and two.contexts_expanded == 0
        assert two.programs == one.programs and two.statistics == one.statistics
        assert one.hierarchy is first and two.hierarchy is second
        programs, statistics = reference_synthesize(synthesizer, second)
        assert two.programs == programs and two.statistics == statistics

    def test_answers_are_copies(self):
        first, second = self.equal_radices()
        synthesizer = Synthesizer(max_program_size=3)
        one = synthesizer.synthesize(first)
        expected = dataclasses.replace(
            one.statistics, per_size_counts=dict(one.statistics.per_size_counts)
        )
        one.programs.clear()
        one.statistics.merge(one.statistics)
        two = synthesizer.synthesize(second)
        assert two.num_programs > 0 and two.statistics == expected

    def test_equal_radices_with_different_goals_are_different_problems(self):
        # Whole-matrix variants: the goal depends on which positions a level
        # covers, not only on the radices.
        reduce_first = reduction_hierarchy(
            (2, 2), axes=(2, 2), reduce=(0,), variant=HierarchyVariant.ROW
        )
        reduce_second = reduction_hierarchy(
            (2, 2), axes=(2, 2), reduce=(1,), variant=HierarchyVariant.ROW
        )
        assert reduce_first.radices == reduce_second.radices
        assert reduce_first.goal() != reduce_second.goal()
        synthesizer = Synthesizer(max_program_size=3)
        for hierarchy in (reduce_first, reduce_second):
            result = synthesizer.synthesize(hierarchy)
            programs, statistics = reference_synthesize(synthesizer, hierarchy)
            assert result.contexts_expanded > 0
            assert result.programs == programs and result.statistics == statistics

    def test_a_changed_configuration_is_a_different_problem(self):
        hierarchy = reduction_hierarchy((2, 4))
        synthesizer = Synthesizer(max_program_size=2)
        small = synthesizer.synthesize(hierarchy)
        synthesizer.max_program_size = 4
        large = synthesizer.synthesize(hierarchy)
        assert large.num_programs > small.num_programs
        assert large.programs == reference_synthesize(synthesizer, hierarchy)[0]

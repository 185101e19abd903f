"""Enumerative, syntax-guided synthesis of reduction programs (paper §3.5).

The synthesizer explores sequences of reduction instructions in increasing
program size (iterative deepening over a depth-first search).  Each candidate
step must satisfy the Hoare precondition of its collective on every device
group it touches; every intermediate context must remain goal-bounded (see
:mod:`repro.synthesis.pruning`).  A program is emitted when the context equals
the goal context.

The instruction alphabet is derived once per synthesis hierarchy from
:func:`repro.dsl.grouping.enumerate_instructions`; instructions that induce
identical device groupings are de-duplicated there, which is why radix-1
levels in hierarchies like ``[1 2 1 2]`` do not blow up the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dsl.grouping import Groups, enumerate_instructions
from repro.dsl.program import ReductionInstruction, ReductionProgram
from repro.errors import SynthesisError
from repro.semantics.collectives import ALL_COLLECTIVES, Collective, apply_step
from repro.semantics.state import StateContext
from repro.synthesis.hierarchy import SynthesisHierarchy
from repro.synthesis.pruning import SearchStatistics, context_within_goal

__all__ = ["SynthesizedProgram", "SynthesisResult", "Synthesizer", "synthesize_programs"]

DEFAULT_MAX_PROGRAM_SIZE = 5
DEFAULT_NODE_LIMIT = 500_000


@dataclass(frozen=True)
class SynthesizedProgram:
    """A valid program together with its per-step virtual device groups."""

    program: ReductionProgram
    step_groups: Tuple[Groups, ...]

    @property
    def size(self) -> int:
        return len(self.program)

    def describe(self, level_names: Optional[Sequence[str]] = None) -> str:
        return self.program.describe(level_names)


@dataclass
class SynthesisResult:
    """Everything produced by one synthesis run."""

    hierarchy: SynthesisHierarchy
    programs: List[SynthesizedProgram]
    statistics: SearchStatistics
    elapsed_seconds: float
    max_program_size: int
    # Contexts this run expanded itself: 0 when answered from an earlier run.  Not in ``==``.
    contexts_expanded: int = field(default=0, compare=False)

    @property
    def num_programs(self) -> int:
        return len(self.programs)

    def sorted_by_size(self) -> List[SynthesizedProgram]:
        return sorted(self.programs, key=lambda p: p.size)

    def describe(self) -> str:
        return (
            f"{self.num_programs} programs for {self.hierarchy.describe()} "
            f"in {self.elapsed_seconds:.3f}s ({self.statistics.describe()})"
        )


_INVALID, _PRUNED, _GOAL = "invalid", "pruned", "goal"


class _Problem:
    """One synthesis problem — an alphabet, an initial and a goal context — and
    what is already known about it: each visited context's expansion and, once
    :meth:`Synthesizer.synthesize` has run, its answer."""

    def __init__(self, alphabet, initial: StateContext, goal: StateContext) -> None:
        self.alphabet, self.initial, self.goal = alphabet, initial, goal
        self.expansions: Dict[Tuple[int, ...], Tuple] = {}
        self.answer: Optional[Tuple[List[SynthesizedProgram], SearchStatistics]] = None

    def expand(self, context: StateContext) -> Tuple:
        """Per alphabet instruction, in order: ``_INVALID`` (a Hoare precondition
        fails), ``_PRUNED`` (the successor leaves the goal bound), ``_GOAL`` or the
        successor context.  Computed the first time a search visits ``context``."""
        # The packed matrices identify a context, and hash as machine words.
        key = tuple(state.bits for state in context.states)
        outcomes = self.expansions.get(key)
        if outcomes is None:
            found: List = []
            goal = self.goal
            for instruction, groups in self.alphabet:
                states = list(context.states)
                if apply_step(instruction.collective, groups, states) is not None:
                    found.append(_INVALID)
                    continue
                successor = StateContext._trusted(states)
                if not context_within_goal(successor, goal):
                    found.append(_PRUNED)
                else:
                    found.append(_GOAL if successor == goal else successor)
            outcomes = self.expansions[key] = tuple(found)
        return outcomes


@dataclass
class Synthesizer:
    """Configurable enumerative synthesizer.

    Parameters
    ----------
    max_program_size:
        Maximum number of instructions per program (the paper uses 5).
    collectives:
        The collective alphabet; defaults to all five operations.
    node_limit:
        Safety cap on the number of expanded search nodes.
    deduplicate_instructions:
        Skip instructions whose induced grouping duplicates an earlier one.

    An instance expands each distinct context of a problem once (the tree search
    replays the expansion, counting as if it had recomputed it) and answers a problem
    — radices, goal, this configuration — :meth:`synthesize` already solved from that run.
    """

    max_program_size: int = DEFAULT_MAX_PROGRAM_SIZE
    collectives: Tuple[Collective, ...] = ALL_COLLECTIVES
    node_limit: int = DEFAULT_NODE_LIMIT
    deduplicate_instructions: bool = True
    _problems: Dict[Tuple, _Problem] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_program_size < 1:
            raise SynthesisError("max_program_size must be >= 1")
        if self.node_limit < 1:
            raise SynthesisError("node_limit must be >= 1")

    @property
    def contexts_expanded(self) -> int:
        return sum(len(problem.expansions) for problem in self._problems.values())

    # ------------------------------------------------------------------ #
    # Instruction alphabet
    # ------------------------------------------------------------------ #
    def instruction_alphabet(
        self, hierarchy: SynthesisHierarchy
    ) -> List[Tuple[ReductionInstruction, Groups]]:
        """All candidate instructions (with their groups) over ``hierarchy``."""
        alphabet: List[Tuple[ReductionInstruction, Groups]] = []
        for slice_level, form, op, groups in enumerate_instructions(
            hierarchy.radices,
            collectives=self.collectives,
            deduplicate=self.deduplicate_instructions,
        ):
            alphabet.append((ReductionInstruction(slice_level, form, op), groups))
        return alphabet

    def _problem(self, hierarchy: SynthesisHierarchy) -> _Problem:
        # The goal is in the key: the whole-matrix variants' goals depend on
        # which positions the levels cover, not only on the radices.
        goal = hierarchy.goal()
        key = (hierarchy.radices, goal, self.max_program_size, self.collectives,
               self.node_limit, self.deduplicate_instructions)
        if key not in self._problems:
            self._problems[key] = _Problem(
                self.instruction_alphabet(hierarchy), hierarchy.initial_context(), goal
            )
        return self._problems[key]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _search(
        self,
        problem: _Problem,
        statistics: SearchStatistics,
        seen_signatures: set,
        pass_size: Optional[int] = None,
    ) -> List[SynthesizedProgram]:
        """One depth-first search over ``problem``; the new programs it reaches.

        ``pass_size`` makes it one iterative-deepening pass: search that deep and emit
        only programs of exactly that size (a shorter one belongs to an earlier pass).
        """
        max_depth = pass_size if pass_size is not None else self.max_program_size
        alphabet = problem.alphabet
        programs: List[SynthesizedProgram] = []
        prefix_instructions: List[ReductionInstruction] = []
        prefix_groups: List[Groups] = []

        def _dfs(context: StateContext, depth: int) -> None:
            if statistics.nodes_expanded >= self.node_limit:
                statistics.hit_node_limit = True
                return
            statistics.nodes_expanded += 1
            for (instruction, groups), outcome in zip(alphabet, problem.expand(context)):
                if statistics.hit_node_limit:
                    return
                statistics.steps_attempted += 1
                if outcome is _INVALID:
                    statistics.steps_invalid += 1
                    continue
                if outcome is _PRUNED:
                    statistics.branches_pruned_goal += 1
                    continue
                prefix_instructions.append(instruction)
                prefix_groups.append(groups)
                if outcome is _GOAL:
                    if pass_size is None or depth + 1 == pass_size:
                        program = ReductionProgram(tuple(prefix_instructions))
                        signature = program.signature()
                        if signature in seen_signatures:
                            statistics.duplicate_programs += 1
                        else:
                            seen_signatures.add(signature)
                            programs.append(
                                SynthesizedProgram(program, tuple(prefix_groups))
                            )
                            statistics.record_program(len(program))
                elif depth + 1 < max_depth:
                    _dfs(outcome, depth + 1)
                prefix_instructions.pop()
                prefix_groups.pop()

        _dfs(problem.initial, 0)
        return programs

    def synthesize(self, hierarchy: SynthesisHierarchy) -> SynthesisResult:
        """Enumerate every valid program of size up to ``max_program_size``."""
        start = time.perf_counter()
        problem = self._problem(hierarchy)
        expanded_before = len(problem.expansions)
        if problem.answer is None:
            statistics = SearchStatistics()
            programs: List[SynthesizedProgram] = []
            if problem.initial != problem.goal:  # else nothing to reduce (group size 1)
                programs = self._search(problem, statistics, set())
                programs.sort(key=lambda p: (p.size, p.program.signature()))
            problem.answer = (programs, statistics)
        programs, statistics = problem.answer
        return SynthesisResult(
            hierarchy,
            list(programs),
            replace(statistics, per_size_counts=dict(statistics.per_size_counts)),
            time.perf_counter() - start,
            self.max_program_size,
            contexts_expanded=len(problem.expansions) - expanded_before,
        )

    def iter_synthesize_sizes(
        self,
        hierarchy: SynthesisHierarchy,
        statistics: Optional[SearchStatistics] = None,
    ) -> Iterator[Tuple[int, List[SynthesizedProgram]]]:
        """Iterative-deepening synthesis: one ``(size, programs)`` batch per pass.

        Pass ``k`` runs a depth-``k`` search and yields exactly the size-``k``
        programs, sorted by signature — so concatenating the batches
        reproduces :meth:`synthesize`'s ``(size, signature)`` program order
        while letting a consumer stop between passes.  That is the lever the
        budgeted search driver pulls: the deepest pass dominates the
        enumeration cost (the search tree grows with its branching factor),
        so abandoning this generator after an early pass skips most of a
        placement's synthesis work.  The re-exploration of shallow prefixes
        across passes replays expansions the earlier passes computed.

        A program's signature determines its size (one entry per
        instruction), so per-pass signature deduplication finds exactly the
        programs the single pass would.  ``statistics`` accumulates across
        passes when given (per-pass node counts add up, so ``nodes_expanded``
        exceeds the single-pass count); the node limit applies to the
        accumulated total and ends enumeration once hit.
        """
        stats = statistics if statistics is not None else SearchStatistics()
        problem = self._problem(hierarchy)
        if problem.initial == problem.goal:
            return  # degenerate: nothing to reduce (reduction group size 1)

        seen_signatures: set = set()
        for target_size in range(1, self.max_program_size + 1):
            if stats.hit_node_limit:
                return
            batch = self._search(problem, stats, seen_signatures, pass_size=target_size)
            batch.sort(key=lambda p: p.program.signature())
            yield target_size, batch


def synthesize_programs(
    hierarchy: SynthesisHierarchy,
    max_program_size: int = DEFAULT_MAX_PROGRAM_SIZE,
    collectives: Sequence[Collective] = ALL_COLLECTIVES,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> SynthesisResult:
    """Convenience wrapper: build a :class:`Synthesizer` and run it once."""
    synthesizer = Synthesizer(
        max_program_size=max_program_size,
        collectives=tuple(collectives),
        node_limit=node_limit,
    )
    return synthesizer.synthesize(hierarchy)

"""Evaluate DSL instructions and programs one Hoare rule application at a time.

The synthesizer and :meth:`LoweredProgram.validates_against` run programs
through memoized whole-step transitions; these functions are the direct
reading of the paper's semantics (§3.2–3.3) they are checked against:
derive an instruction's device groups, apply the collective's rule to every
group, leave the other devices untouched, repeat per instruction.
"""

from __future__ import annotations

from typing import Sequence

from repro.dsl.grouping import Groups
from repro.dsl.program import ReductionInstruction, ReductionProgram
from repro.errors import InvalidCollectiveError
from repro.semantics.collectives import Collective, apply_collective, apply_step, step_error
from repro.semantics.state import DeviceState, StateContext

__all__ = [
    "apply_instruction",
    "apply_to_groups",
    "apply_program",
    "program_is_valid",
    "program_achieves",
    "collective_is_valid",
]


def apply_instruction(
    instruction: ReductionInstruction, context: StateContext, radices: Sequence[int]
) -> StateContext:
    """Apply ``instruction`` to ``context``; raise if semantically invalid."""
    groups = instruction.groups(radices)
    if not groups:
        raise InvalidCollectiveError(
            f"instruction {instruction!r} induces no group of size >= 2"
        )
    return apply_to_groups(instruction, context, groups)


def apply_to_groups(
    instruction: ReductionInstruction, context: StateContext, groups: Groups
) -> StateContext:
    """Apply the instruction's collective to pre-computed ``groups`` over ``context``."""
    states = list(context.states)
    failure = apply_step(instruction.collective, groups, states)
    if failure is not None:
        raise step_error(instruction.collective, groups, states, failure)
    return StateContext._trusted(states)


def apply_program(
    program: ReductionProgram, context: StateContext, radices: Sequence[int]
) -> StateContext:
    """Run the whole program from ``context``; raise on the first invalid step."""
    current = context
    for instruction in program.instructions:
        current = apply_instruction(instruction, current, radices)
    return current


def program_is_valid(
    program: ReductionProgram, context: StateContext, radices: Sequence[int]
) -> bool:
    """True when every step satisfies its Hoare precondition from ``context``."""
    try:
        apply_program(program, context, radices)
        return True
    except InvalidCollectiveError:
        return False


def program_achieves(
    program: ReductionProgram,
    initial: StateContext,
    goal: StateContext,
    radices: Sequence[int],
) -> bool:
    """True when running the program from ``initial`` produces exactly ``goal``."""
    try:
        return apply_program(program, initial, radices) == goal
    except InvalidCollectiveError:
        return False


def collective_is_valid(op: Collective, states: Sequence[DeviceState]) -> bool:
    """Whether one group's pre-states satisfy ``op``'s Hoare precondition."""
    try:
        apply_collective(op, states)
        return True
    except InvalidCollectiveError:
        return False

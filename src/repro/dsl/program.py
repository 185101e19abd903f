"""Reduction instructions and programs.

A :class:`ReductionInstruction` is the triple ``(slice, form, collective)``
from the paper; a :class:`ReductionProgram` is a sequence of them.  Programs
are evaluated over a :class:`~repro.semantics.state.StateContext` by deriving
the device groups of each instruction (via :mod:`repro.dsl.grouping`) and
applying the collective's Hoare rule to every group while leaving
non-participating devices untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.dsl.forms import Form, InsideGroup, Master, Parallel
from repro.dsl.grouping import Groups, derive_groups
from repro.errors import DSLError, InvalidCollectiveError
from repro.semantics.collectives import Collective, apply_step, step_error
from repro.semantics.state import StateContext

__all__ = ["ReductionInstruction", "ReductionProgram"]


@dataclass(frozen=True)
class ReductionInstruction:
    """One step of a reduction strategy: ``(slice, form, collective)``."""

    slice_level: int
    form: Form
    collective: Collective

    def __post_init__(self) -> None:
        if self.slice_level < 0:
            raise DSLError(f"slice level must be >= 0, got {self.slice_level}")
        ancestor = self.form.ancestor
        if ancestor is not None and ancestor >= self.slice_level:
            raise DSLError(
                f"form ancestor level {ancestor} must be a strict ancestor of "
                f"slice level {self.slice_level}"
            )

    def groups(self, radices: Sequence[int]) -> Groups:
        """Device groups this instruction induces over a hierarchy with ``radices``."""
        return derive_groups(radices, self.slice_level, self.form)

    def apply(self, context: StateContext, radices: Sequence[int]) -> StateContext:
        """Apply this instruction to ``context``; raise if semantically invalid."""
        groups = self.groups(radices)
        if not groups:
            raise InvalidCollectiveError(
                f"instruction {self!r} induces no group of size >= 2"
            )
        return self.apply_to_groups(context, groups)

    def apply_to_groups(self, context: StateContext, groups: Groups) -> StateContext:
        """Apply the collective to pre-computed ``groups`` over ``context``."""
        states = list(context.states)
        failure = apply_step(self.collective, groups, states)
        if failure is not None:
            raise step_error(self.collective, groups, states, failure)
        return StateContext._trusted(states)

    def describe(self, level_names: Optional[Sequence[str]] = None) -> str:
        if level_names is not None and 0 <= self.slice_level < len(level_names):
            slice_name = str(level_names[self.slice_level])
        else:
            slice_name = f"L{self.slice_level}"
        return f"({slice_name}, {self.form.describe(list(level_names) if level_names else None)}, {self.collective})"


@dataclass(frozen=True)
class ReductionProgram:
    """An ordered list of reduction instructions."""

    instructions: Tuple[ReductionInstruction, ...]

    @classmethod
    def of(cls, *instructions: ReductionInstruction) -> "ReductionProgram":
        return cls(tuple(instructions))

    @classmethod
    def single_all_reduce(cls, slice_level: int = 0) -> "ReductionProgram":
        """The default strategy: one AllReduce inside each slice-level group."""
        return cls.of(ReductionInstruction(slice_level, InsideGroup(), Collective.ALL_REDUCE))

    @property
    def size(self) -> int:
        """Program size as the paper counts it: number of instructions."""
        return len(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[ReductionInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> ReductionInstruction:
        return self.instructions[index]

    def append(self, instruction: ReductionInstruction) -> "ReductionProgram":
        """Return a new program with ``instruction`` appended."""
        return ReductionProgram(self.instructions + (instruction,))

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def apply(self, context: StateContext, radices: Sequence[int]) -> StateContext:
        """Run the whole program from ``context``; raise on the first invalid step."""
        current = context
        for instruction in self.instructions:
            current = instruction.apply(current, radices)
        return current

    def is_valid(self, context: StateContext, radices: Sequence[int]) -> bool:
        """True when every step satisfies its Hoare precondition from ``context``."""
        try:
            self.apply(context, radices)
            return True
        except InvalidCollectiveError:
            return False

    def achieves(
        self, initial: StateContext, goal: StateContext, radices: Sequence[int]
    ) -> bool:
        """True when running the program from ``initial`` produces exactly ``goal``."""
        try:
            return self.apply(initial, radices) == goal
        except InvalidCollectiveError:
            return False

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def collectives_used(self) -> Tuple[Collective, ...]:
        return tuple(instruction.collective for instruction in self.instructions)

    def uses_rooted_collectives(self) -> bool:
        return any(instruction.collective.is_rooted for instruction in self.instructions)

    def describe(self, level_names: Optional[Sequence[str]] = None) -> str:
        if not self.instructions:
            return "<empty program>"
        return " ; ".join(i.describe(level_names) for i in self.instructions)

    def signature(self) -> Tuple:
        """A hashable signature used for de-duplication across search orders."""
        sig: List = []
        for instruction in self.instructions:
            form = instruction.form
            if isinstance(form, InsideGroup):
                form_key = ("inside",)
            elif isinstance(form, Parallel):
                form_key = ("parallel", form.level)
            elif isinstance(form, Master):
                form_key = ("master", form.level)
            else:  # pragma: no cover - defensive
                raise DSLError(f"unknown form {form!r}")
            sig.append((instruction.slice_level, form_key, instruction.collective.value))
        return tuple(sig)

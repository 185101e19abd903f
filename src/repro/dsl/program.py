"""Reduction instructions and programs.

A :class:`ReductionInstruction` is the triple ``(slice, form, collective)``
from the paper; a :class:`ReductionProgram` is a sequence of them.  An
instruction derives its device groups over a hierarchy (via
:mod:`repro.dsl.grouping`); the synthesizer applies the collective's Hoare
rule to those groups itself.  Evaluating a whole program instruction by
instruction is the tests' reference (``tests/oracles/dsl.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.dsl.forms import Form, InsideGroup, Master, Parallel
from repro.dsl.grouping import Groups, derive_groups
from repro.errors import DSLError
from repro.semantics.collectives import Collective

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

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[ReductionInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> ReductionInstruction:
        return self.instructions[index]

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

"""Lowered programs without the package's sharing.

A :class:`LoweredProgram` records the sweep that validated it, and programs
of one placement share their Hoare transitions.  The references here share
nothing: a copy of a program on new step objects, and the step kernel run
on every group of every step.
"""

from __future__ import annotations

from repro.semantics.collectives import apply_step, step_error
from repro.semantics.state import StateContext
from repro.synthesis.lowering import LoweredProgram, LoweredStep

__all__ = ["unshared_copy", "run_steps"]


def unshared_copy(program: LoweredProgram) -> LoweredProgram:
    """An equal program that shares no object with ``program`` and has
    recorded no sweep (its ``source`` is dropped, as a plan's is)."""
    steps = tuple(LoweredStep.from_dict(step.to_dict()) for step in program.steps)
    return LoweredProgram(program.num_devices, steps, label=program.label)


def run_steps(program: LoweredProgram, context: StateContext) -> StateContext:
    """The Hoare semantics of every step from ``context``, nothing remembered."""
    states = list(context.states)
    for step in program.steps:
        failure = apply_step(step.collective, step.groups, states)
        if failure is not None:
            raise step_error(step.collective, step.groups, states, failure)
    return StateContext(tuple(states))

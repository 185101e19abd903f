"""Tests for repro.dsl.program and repro.dsl.forms and repro.dsl.pretty."""

from __future__ import annotations

import pytest

from repro.dsl.forms import InsideGroup, Master, Parallel
from repro.dsl.pretty import program_mnemonic
from repro.dsl.program import ReductionInstruction, ReductionProgram
from repro.errors import DSLError, InvalidCollectiveError
from repro.semantics.collectives import Collective
from repro.semantics.goals import all_reduce_goal, initial_context

from oracles.dsl import apply_instruction, program_achieves, program_is_valid

RADICES = (1, 2, 2)  # root, 2 nodes, 2 gpus each -> 4 devices


def single_all_reduce() -> ReductionProgram:
    """The default strategy: one AllReduce inside each root-level group."""
    return ReductionProgram.of(ReductionInstruction(0, InsideGroup(), Collective.ALL_REDUCE))


class TestForms:
    def test_describe_with_and_without_names(self):
        assert InsideGroup().describe() == "InsideGroup"
        assert Parallel(1).describe() == "Parallel(L1)"
        assert Parallel(1).describe(["root", "node"]) == "Parallel(node)"
        assert Master(0).describe(["root"]) == "Master(root)"

    def test_ancestor_property(self):
        assert InsideGroup().ancestor is None
        assert Parallel(2).ancestor == 2
        assert Master(1).ancestor == 1

    def test_negative_levels_rejected(self):
        with pytest.raises(DSLError):
            Parallel(-1)
        with pytest.raises(DSLError):
            Master(-2)


class TestReductionInstruction:
    def test_valid_instruction(self):
        instr = ReductionInstruction(1, Parallel(0), Collective.ALL_REDUCE)
        assert instr.slice_level == 1

    def test_form_must_be_strict_ancestor(self):
        with pytest.raises(DSLError):
            ReductionInstruction(1, Parallel(1), Collective.ALL_REDUCE)
        with pytest.raises(DSLError):
            ReductionInstruction(0, Master(0), Collective.REDUCE)

    def test_negative_slice_rejected(self):
        with pytest.raises(DSLError):
            ReductionInstruction(-1, InsideGroup(), Collective.ALL_REDUCE)

    def test_groups_and_apply(self):
        instr = ReductionInstruction(1, InsideGroup(), Collective.ALL_REDUCE)
        groups = instr.groups(RADICES)
        assert groups == ((0, 1), (2, 3))
        context = initial_context(4)
        after = apply_instruction(instr, context, RADICES)
        assert after[0].rows[0] == 0b0011
        assert after[2].rows[0] == 0b1100

    def test_apply_raises_when_no_groups(self):
        instr = ReductionInstruction(2, InsideGroup(), Collective.ALL_REDUCE)
        with pytest.raises(InvalidCollectiveError):
            apply_instruction(instr, initial_context(4), RADICES)

    def test_describe_uses_level_names(self):
        instr = ReductionInstruction(1, Parallel(0), Collective.REDUCE)
        text = instr.describe(["root", "node", "gpu"])
        assert "node" in text and "Reduce" in text


class TestReductionProgram:
    def make_blueconnect(self):
        return ReductionProgram.of(
            ReductionInstruction(1, InsideGroup(), Collective.REDUCE_SCATTER),
            ReductionInstruction(1, Parallel(0), Collective.ALL_REDUCE),
            ReductionInstruction(1, InsideGroup(), Collective.ALL_GATHER),
        )

    def test_single_all_reduce_achieves_goal(self):
        program = single_all_reduce()
        assert program_achieves(program, initial_context(4), all_reduce_goal(4), RADICES)

    def test_blueconnect_achieves_goal(self):
        program = self.make_blueconnect()
        assert program_achieves(program, initial_context(4), all_reduce_goal(4), RADICES)

    def test_hierarchical_reduce_broadcast_achieves_goal(self):
        program = ReductionProgram.of(
            ReductionInstruction(1, InsideGroup(), Collective.REDUCE),
            ReductionInstruction(1, Master(0), Collective.ALL_REDUCE),
            ReductionInstruction(1, InsideGroup(), Collective.BROADCAST),
        )
        assert program_achieves(program, initial_context(4), all_reduce_goal(4), RADICES)

    def test_invalid_program_detected(self):
        # AllReduce twice over the same groups folds data twice (Figure 4b).
        program = ReductionProgram.of(
            ReductionInstruction(1, InsideGroup(), Collective.ALL_REDUCE),
            ReductionInstruction(1, InsideGroup(), Collective.ALL_REDUCE),
        )
        assert not program_is_valid(program, initial_context(4), RADICES)
        assert not program_achieves(program, initial_context(4), all_reduce_goal(4), RADICES)

    def test_incomplete_program_does_not_achieve(self):
        program = ReductionProgram.of(
            ReductionInstruction(1, InsideGroup(), Collective.ALL_REDUCE)
        )
        assert program_is_valid(program, initial_context(4), RADICES)
        assert not program_achieves(program, initial_context(4), all_reduce_goal(4), RADICES)

    def test_iteration_indexing_and_length(self):
        program = self.make_blueconnect()
        assert len(program) == 3
        assert program[1].collective == Collective.ALL_REDUCE
        assert [i.collective for i in program] == [
            Collective.REDUCE_SCATTER,
            Collective.ALL_REDUCE,
            Collective.ALL_GATHER,
        ]

    def test_signature_distinguishes_programs(self):
        a = self.make_blueconnect()
        b = single_all_reduce()
        assert a.signature() != b.signature()
        assert a.signature() == self.make_blueconnect().signature()

    def test_describe_empty_and_nonempty(self):
        assert ReductionProgram.of().describe() == "<empty program>"
        assert "AllReduce" in single_all_reduce().describe()


class TestPretty:
    def test_program_mnemonic(self):
        program = ReductionProgram.of(
            ReductionInstruction(1, InsideGroup(), Collective.REDUCE_SCATTER),
            ReductionInstruction(1, Parallel(0), Collective.ALL_REDUCE),
            ReductionInstruction(1, InsideGroup(), Collective.ALL_GATHER),
        )
        assert program_mnemonic(program) == "RS-AR-AG"
        assert program_mnemonic(ReductionProgram.of()) == "<empty>"

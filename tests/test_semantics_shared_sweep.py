"""Validation and profile compilation share one semantic sweep.

``LoweredProgram.validates_against`` leaves the per-group pre-state chunk
fractions of its sweep on the program; ``compile_profile`` consumes them
instead of running the Hoare semantics a second time.  These tests pin the
contract: nothing is recomputed, nothing changes in the compiled profile or
in the errors, no state object outlives the sweep, and the fractions travel
with the program to shard workers.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.synthesis.lowering as lowering
from repro.api import P2
from repro.cost.profile import compile_profile
from repro.cost.simulator import ProgramSimulator
from repro.errors import InvalidCollectiveError, SemanticsError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.obs import Recorder
from repro.query import PlanQuery
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram, LoweredStep, forget_transitions
from repro.synthesis.pipeline import synthesize_all

from oracles.lowering import run_steps, unshared_copy

MB = 1 << 20
AXES = ParallelismAxes.of(8, 4)
REQUEST = ReductionRequest((0,))


@pytest.fixture(scope="module")
def candidates():
    from repro.topology.gcp import a100_system

    topology = a100_system(num_nodes=2)
    return topology, synthesize_all(topology.hierarchy, AXES, REQUEST, max_program_size=3)


def validated_programs(candidates):
    """(placement, program) for every synthesized — hence validated — program."""
    _, placements = candidates
    return [
        (candidate.placement, program.lowered)
        for candidate in placements
        for program in candidate.programs
    ]


@pytest.fixture
def apply_calls(monkeypatch):
    """Counts every Hoare-rule application the lowering sweep makes: one per
    group of each step handed to the step kernel."""
    calls = []
    real = lowering.apply_step

    def counting(op, groups, states):
        calls.extend([op] * len(groups))
        return real(op, groups, states)

    monkeypatch.setattr(lowering, "apply_step", counting)
    return calls


class TestCompileReusesTheValidationSweep:
    def test_no_rule_is_applied_twice(self, candidates, apply_calls):
        topology, _ = candidates
        pairs = validated_programs(candidates)
        assert len(pairs) > 20
        for placement, program in pairs:
            assert program.semantics_recorded
            fresh = unshared_copy(program)
            assert not fresh.semantics_recorded
            del apply_calls[:]
            reused = compile_profile(program, topology)
            assert apply_calls == []
            recompiled = compile_profile(fresh, topology)
            assert len(apply_calls) == sum(step.num_groups for step in fresh.steps)
            assert reused == recompiled
            # compile_profile's own sweep is not kept: only validation records.
            assert not fresh.semantics_recorded

    def test_validation_still_visits_every_group(self, candidates, apply_calls):
        """On a fresh placement the programs of a matrix apply a rule exactly once
        per group of each distinct (pre-context, step) pair — no group of any
        of them is skipped, none is visited twice."""
        _, placements = candidates
        candidate = max(placements, key=lambda c: len(c.programs))
        programs = [unshared_copy(p.lowered) for p in candidate.programs]
        initial, _ = candidate.placement.reduction_contexts(REQUEST)
        # The distinct transitions, found by stepping every program on its own.
        groups_of = {}
        for program in programs:
            context = initial
            for step in program.steps:
                groups_of[(context, step)] = step.num_groups
                context = run_steps(LoweredProgram(program.num_devices, (step,)), context)
        every_group = sum(step.num_groups for program in programs for step in program.steps)
        assert sum(groups_of.values()) < every_group

        for _ in range(2):  # a second fresh placement starts again from zero
            placement = DevicePlacement(candidate.matrix)
            del apply_calls[:]
            for program, validated in zip(programs, candidate.programs):
                assert program.validates_against(placement, REQUEST)
                assert program.pre_state_fractions() == validated.lowered.pre_state_fractions()
            assert len(apply_calls) == sum(groups_of.values())
            assert forget_transitions(placement)[1] == len(groups_of)

        # Without a placement nothing is shared: every group of every step.
        del apply_calls[:]
        for program in candidate.programs:
            copy = unshared_copy(program.lowered)
            copy.pre_state_fractions()
        assert len(apply_calls) == every_group

    def test_recorded_fractions_are_outside_value_semantics(self, candidates):
        _, program = validated_programs(candidates)[0]
        fresh = unshared_copy(program)
        fresh = dataclasses.replace(fresh, source=program.source)
        assert fresh == program and hash(fresh) == hash(program)
        assert repr(fresh) == repr(program)
        assert fresh.steps == program.steps and fresh.label == program.label
        assert [f.name for f in dataclasses.fields(program)] == [
            "num_devices", "steps", "source", "label",
        ]


class TestInvalidPrograms:
    def invalid(self, n):
        # AllGather from the initial state: every device holds every chunk.
        step = LoweredStep(Collective.ALL_GATHER, (tuple(range(n)),))
        return LoweredProgram(num_devices=n, steps=(step,))

    def test_invalid_program_fails_both_ways(self, candidates):
        topology, placements = candidates
        program = self.invalid(topology.num_devices)
        assert program.validates_against(placements[0].placement, REQUEST) is False
        assert not program.semantics_recorded
        with pytest.raises(InvalidCollectiveError):
            compile_profile(program, topology)
        with pytest.raises(InvalidCollectiveError):
            program.pre_state_fractions()

    def test_valid_steps_that_miss_the_goal(self, candidates):
        topology, placements = candidates
        placement = placements[0].placement
        group = tuple(placement.reduction_groups(REQUEST)[0])
        partial = LoweredProgram(
            num_devices=topology.num_devices,
            steps=(LoweredStep(Collective.ALL_REDUCE, (group,)),),
        )
        assert partial.validates_against(placement, REQUEST) is False
        # The sweep completed, so its fractions are as good as a fresh one's.
        fresh = unshared_copy(partial)
        assert compile_profile(partial, topology) == compile_profile(fresh, topology)

    def test_placement_of_another_size_is_rejected(self, candidates):
        _, placements = candidates
        with pytest.raises(SemanticsError):
            self.invalid(8).validates_against(placements[0].placement, REQUEST)


class TestNoStateOutlivesTheSweep:
    def test_programs_hold_floats_not_states(self, candidates):
        topology, _ = candidates
        simulator = ProgramSimulator(topology)
        for _, program in validated_programs(candidates):
            simulator.simulate(program, 4 * MB)
            extra = set(vars(program)) - {f.name for f in dataclasses.fields(program)}
            assert extra == {"_pre_state_fractions"}
            fractions = program.pre_state_fractions()
            assert [len(step) for step in fractions] == [
                step.num_groups for step in program.steps
            ]
            assert all(type(f) is float for step in fractions for f in step)
            # Anything reachable from the program is in its pickle.
            blob = pickle.dumps(program)
            assert b"DeviceState" not in blob and b"StateContext" not in blob


class TestPerPlacementInvariants:
    def test_programs_of_one_placement_share_their_group_tuples(self, candidates):
        _, placements = candidates
        candidate = max(placements, key=lambda c: len(c.programs))
        assert len(candidate.programs) > 5
        first_seen = {}
        for program in candidate.programs:
            for step in program.lowered.steps:
                assert first_seen.setdefault(step.groups, step.groups) is step.groups
        assert len(first_seen) < sum(p.lowered.num_steps for p in candidate.programs)

    def test_contexts_are_computed_once_per_placement(self, candidates):
        _, placements = candidates
        placement = placements[0].placement
        assert placement.reduction_contexts(REQUEST) is placement.reduction_contexts(
            ReductionRequest((0,))
        )
        initial, goal = placement.reduction_contexts(REQUEST)
        assert len(initial.states) == len(goal.states) == placement.num_devices
        assert goal != placement.reduction_contexts(ReductionRequest((1,)))[1]


class TestObservability:
    def test_compile_span_says_whether_semantics_ran(self, candidates):
        topology, _ = candidates
        recorder = Recorder()
        simulator = ProgramSimulator(topology, recorder=recorder)
        programs = validated_programs(candidates)
        validated, other = programs[0][1], programs[-1][1]
        assert validated.signature() != other.signature()
        unvalidated = unshared_copy(other)
        simulator.simulate(validated, 4 * MB)
        simulator.simulate(unvalidated, 4 * MB)
        compiles = [s for s in recorder.snapshot().spans if s.name == "profile.compile"]
        assert [s.attrs["semantics"] for s in compiles] == ["reused", "ran"]
        assert recorder.snapshot().counters.get("profile.semantics_reused", 0) == 1
        assert simulator.semantics_reused == 1

    def test_search_report_counts_reuse(self, candidates):
        topology, _ = candidates
        outcome = P2(topology).plan(
            PlanQuery(axes=AXES, request=REQUEST, bytes_per_device=4 * MB, max_program_size=3)
        )
        search = outcome.search
        assert 0 < search["semantics_reused"] <= outcome.profile_misses


class TestFractionsTravelToWorkers:
    def test_pickle_round_trip_keeps_the_fractions(self, candidates):
        _, program = validated_programs(candidates)[-1]
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program and clone.semantics_recorded
        assert clone.pre_state_fractions() == program.pre_state_fractions()

    def test_sharded_plan_is_bit_identical(self, candidates):
        topology, _ = candidates
        query = PlanQuery(
            axes=AXES, request=REQUEST, bytes_per_device=4 * MB, max_program_size=3
        )
        serial = P2(topology).plan(query)
        sharded = P2(topology).plan(dataclasses.replace(query, shards=2))
        assert sharded.search["shards"] == 2
        sharded_dict, serial_dict = sharded.plan.to_dict(), serial.plan.to_dict()
        assert sharded_dict["strategies"] == serial_dict["strategies"]
        # Programs are indices into the step table: compare the groups too.
        assert sharded_dict["steps"] == serial_dict["steps"]
        assert sharded.search["semantics_reused"] > 0

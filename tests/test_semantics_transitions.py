"""Sharing inside one placement, against unshared references.

Programs of one matrix share their Hoare transitions (one check per distinct
(pre-context, step) pair, kept in a table on the placement while the matrix
is searched), their per-grouping contention analysis and their per-(step,
fractions) step profiles (kept on the topology).  Each of those is compared
here with the computation it replaced, run on objects that share nothing:
``from_dict`` copies of the programs, fresh placements, fresh topologies.
The shapes go beyond the paper's: a non-power-of-two axis, a three-level
hierarchy and a reduction over two axes.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import types

import pytest

from repro.api import P2
from repro.cost.contention import analyze_step_contention
from repro.cost.profile import compile_profile
from repro.errors import InvalidCollectiveError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.obs import Recorder
from repro.query import PlanQuery
from repro.semantics.collectives import Collective
from repro.semantics.state import DeviceState
from repro.service.cache import PlanCache
from repro.service.engine import PlanningService
from repro.synthesis.lowering import LoweredProgram, LoweredStep, forget_transitions
from repro.synthesis.pipeline import lower_program_candidate, synthesize_all
from repro.topology.gcp import a100_system, v100_system
from repro.topology.links import DCN_NIC_8GBS, NVLINK_RING_135GBS, PCIE_32GBS
from repro.topology.topology import MachineTopology

MB = 1 << 20


def fresh(topology: MachineTopology) -> MachineTopology:
    """An equal topology that has memoized nothing yet."""
    clone = dataclasses.replace(topology)
    assert clone == topology and len(clone.step_profiles) == 0 == len(clone._span_levels)
    return clone


def three_level_topology() -> MachineTopology:
    return MachineTopology(
        name="three-level",
        hierarchy=SystemHierarchy.from_cardinalities([2, 2, 4], ["node", "cpu", "gpu"]),
        interconnects=(DCN_NIC_8GBS, PCIE_32GBS, NVLINK_RING_135GBS),
    )


# name -> (topology builder, axes, reduction axes, program size limit)
SHAPES = {
    "paper-8x4-r0": (lambda: a100_system(num_nodes=2), (8, 4), (0,), 3),
    "non-power-of-two-3-nodes-6x2-r0": (lambda: a100_system(3, gpus_per_node=4), (6, 2), (0,), 3),
    "non-power-of-two-6-gpus-6x2-r0": (lambda: v100_system(2, gpus_per_node=6), (6, 2), (0,), 4),
    "three-level-4x4-r1": (three_level_topology, (4, 4), (1,), 3),
    "two-axis-2x2x8-r02": (lambda: a100_system(num_nodes=2), (2, 2, 8), (0, 2), 3),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    build, axes, reduce, size = SHAPES[request.param]
    topology = build()
    reduction = ReductionRequest(tuple(reduce))
    candidates = synthesize_all(
        topology.hierarchy, ParallelismAxes.of(*axes), reduction, max_program_size=size
    )
    assert sum(len(c.programs) for c in candidates) > 10
    return topology, reduction, candidates


def copies(candidate):
    """Programs equal to the candidate's that share no object with them."""
    return [
        LoweredProgram.from_dict(p.lowered.to_dict(), p.lowered.num_devices)
        for p in candidate.programs
    ]


class TestTransitionTable:
    def test_verdict_and_fractions_equal_an_unmemoized_sweep(self, shape):
        _, reduction, candidates = shape
        for candidate in candidates:
            placement = DevicePlacement(candidate.matrix)
            initial, goal = placement.reduction_contexts(reduction)
            for program, reference in zip(copies(candidate), copies(candidate)):
                assert program.validates_against(placement, reduction) is True
                assert reference.run_semantics(initial) == goal
                assert not reference.semantics_recorded
                assert program.pre_state_fractions() == reference.pre_state_fractions()
            steps, transitions = forget_transitions(placement)
            assert steps == sum(p.lowered.num_steps for p in candidate.programs)
            assert 0 < transitions <= steps
            assert forget_transitions(placement) == (0, 0)

    def test_shared_edges_hand_out_the_same_fractions(self, shape):
        _, _, candidates = shape
        candidate = max(candidates, key=lambda c: len(c.programs))
        by_edge = {}
        for program in candidate.programs:
            prefix = ()
            for step, fractions in zip(
                program.lowered.steps, program.lowered.pre_state_fractions()
            ):
                known = by_edge.setdefault((prefix, step), fractions)
                assert known is fractions
                prefix += (step,)
        assert len(by_edge) < sum(p.lowered.num_steps for p in candidate.programs)

    def test_a_goal_missing_walk_is_not_a_valid_program(self, shape):
        _, reduction, candidates = shape
        candidate = max(candidates, key=lambda c: len(c.programs))
        placement = DevicePlacement(candidate.matrix)
        for program in copies(candidate):
            if program.num_steps < 2:
                continue
            truncated = dataclasses.replace(program, steps=program.steps[:-1])
            assert program.validates_against(placement, reduction) is True
            assert truncated.validates_against(placement, reduction) is False
            assert truncated.pre_state_fractions() == program.pre_state_fractions()[:-1]


class TestInvalidStepAfterASharedPrefix:
    def broken(self, program: LoweredProgram) -> LoweredProgram:
        # Whatever the first step was, reducing over its groups again is
        # invalid: contributions already folded (AllReduce), members holding
        # different chunks (ReduceScatter) or nothing at all (Reduce).
        again = LoweredStep(Collective.ALL_REDUCE, program.steps[0].groups)
        return LoweredProgram(program.num_devices, (program.steps[0], again))

    def test_it_fails_the_same_way_and_poisons_nothing(self, shape):
        topology, reduction, candidates = shape
        candidate = max(candidates, key=lambda c: len(c.programs))
        placement = DevicePlacement(candidate.matrix)
        programs = [p for p in copies(candidate) if p.num_steps >= 2]
        assert programs
        for program in programs:
            bad = self.broken(program)
            reference = LoweredProgram.from_dict(bad.to_dict(), bad.num_devices)
            with pytest.raises(InvalidCollectiveError) as expected:
                reference.pre_state_fractions()
            # Before and after the prefix edge exists in the table.
            for _ in range(2):
                assert bad.validates_against(placement, reduction) is False
                assert not bad.semantics_recorded
                assert program.validates_against(placement, reduction) is True
            with pytest.raises(InvalidCollectiveError) as raised:
                compile_profile(bad, topology)
            assert str(raised.value) == str(expected.value)
            untouched = LoweredProgram.from_dict(program.to_dict(), program.num_devices)
            assert program.pre_state_fractions() == untouched.pre_state_fractions()


class TestStepProfilesAndContention:
    def test_memoized_profiles_equal_profiles_of_copies_on_a_fresh_topology(self, shape):
        topology, _, candidates = shape
        compiled = steps = 0
        for candidate in candidates:
            for program, copy in zip(candidate.programs, copies(candidate)):
                assert program.lowered.semantics_recorded
                shared = compile_profile(program.lowered, topology)
                alone = compile_profile(copy, fresh(topology))
                assert shared == alone
                # Alone it shares only with itself (a step repeated at equal fractions).
                assert alone.steps_compiled == len(
                    set(zip(copy.steps, copy.pre_state_fractions()))
                )
                compiled += shared.steps_compiled
                steps += copy.num_steps
        assert 0 < compiled < steps
        assert compiled <= len(topology.step_profiles)

    def test_the_fractions_are_part_of_the_key(self):
        # The pinned pairs: on [[2 4] [1 4]] the second step of an AR-AR and of
        # an RS-AR-AG is the same AllReduce over the same groups, entered
        # holding everything in one program and a half or a quarter in the other.
        topology = a100_system(num_nodes=2)
        candidates = synthesize_all(
            topology.hierarchy, ParallelismAxes.of(8, 4), ReductionRequest((0,)),
            max_program_size=3,
        )
        (candidate,) = [c for c in candidates if c.matrix.entries == ((2, 4), (1, 4))]
        pairs = [
            (p.lowered, q.lowered)
            for p in candidate.programs if p.mnemonic == "AR-AR"
            for q in candidate.programs if q.mnemonic == "RS-AR-AG"
            if p.lowered.steps[1] is q.lowered.steps[1]
        ]
        entered_with = set()
        for whole, part in pairs:
            first = compile_profile(whole, topology).steps[1]
            second = compile_profile(part, topology).steps[1]
            assert [c.chunk_fraction for c in first.classes] == [1.0]
            entered_with.update(c.chunk_fraction for c in second.classes)
            assert first != second
            assert second == compile_profile(
                LoweredProgram.from_dict(part.to_dict(), part.num_devices), fresh(topology)
            ).steps[1]
        assert entered_with == {0.25, 0.5}

    def test_memoized_contention_equals_a_fresh_analysis(self, shape):
        topology, _, candidates = shape
        distinct = set()
        for candidate in candidates:
            for program in candidate.programs:
                for step in program.lowered.steps:
                    shared = analyze_step_contention(step, topology)
                    assert shared == analyze_step_contention(step, fresh(topology))
                    assert analyze_step_contention(step, topology) is shared
                    distinct.add(step.groups)
        assert len(topology.contentions) == len(distinct)

    def test_memos_stay_out_of_value_semantics_and_pickles(self, shape):
        topology, _, candidates = shape
        compile_profile(candidates[0].programs[0].lowered, topology)
        clone = pickle.loads(pickle.dumps(topology))
        assert clone == topology and hash(clone) == hash(topology)
        assert len(clone.contentions) == 0 == len(clone.step_profiles)
        assert clone.step_profiles.bound == topology.step_profiles.bound
        assert len(topology.contentions) and len(topology.step_profiles)


def reachable_states(root, kind=DeviceState):
    """Every ``DeviceState`` (or ``kind``) reachable from ``root`` through data (not code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestNothingOutlivesTheSearch:
    QUERY = PlanQuery(
        axes=ParallelismAxes.of(8, 4), request=ReductionRequest((0,)),
        bytes_per_device=4 * MB, max_program_size=3,
    )

    def test_a_plan_reaches_no_state_beyond_the_reduction_contexts(self):
        topology = a100_system(num_nodes=2)
        outcome = PlanningService(topology, cache=PlanCache(None)).plan(self.QUERY)
        allowed = set()
        candidates = outcome.plan.candidates
        assert sum(c.semantic_steps for c in candidates) > sum(
            c.semantic_transitions for c in candidates
        )
        for candidate in candidates:
            assert not candidate.placement.hoare_transitions
            assert candidate.semantic_steps >= candidate.semantic_transitions > 0
            for context in candidate.placement.reduction_contexts(self.QUERY.request):
                allowed.update(id(state) for state in context.states)
        states = reachable_states(outcome.plan)
        assert states and all(id(state) in allowed for state in states)

    def test_a_budgeted_search_drops_its_tables_too(self):
        topology = a100_system(num_nodes=2)
        query = dataclasses.replace(self.QUERY, max_candidates=5)
        outcome = P2(topology).plan(query)
        assert outcome.search["budget_stopped"]
        for candidate in outcome.plan.candidates:
            assert not candidate.placement.hoare_transitions
            # The driver closed the abandoned stream itself: what the matrix
            # shared was counted before the search reported, not at collection.
            assert candidate.semantic_steps >= candidate.semantic_transitions > 0
            assert candidate.synthesis.contexts_expanded > 0

    def test_a_direct_caller_that_forgets_leaves_no_state_behind(self, shape):
        # The table's lifetime is the caller's: validation through the public
        # helpers pins every context reached on the placement until
        # forget_transitions, after which only the reduction contexts remain.
        _, reduction, candidates = shape
        candidate = max(candidates, key=lambda c: len(c.programs))
        placement = DevicePlacement(candidate.matrix)
        programs = [
            lower_program_candidate(
                synthesized, candidate.synthesis.hierarchy, placement, reduction
            )
            for synthesized in candidate.synthesis.programs
        ]
        allowed = {
            id(state)
            for context in placement.reduction_contexts(reduction)
            for state in context.states
        }
        pinned = {id(state) for state in reachable_states([placement, programs])}
        assert pinned > allowed
        steps, transitions = forget_transitions(placement)
        assert steps > transitions > 0
        assert {id(state) for state in reachable_states([placement, programs])} == allowed

    def test_a_placement_pickles_without_its_search_state(self, shape):
        _, reduction, candidates = shape
        placement = DevicePlacement(candidates[0].matrix)
        program = copies(candidates[0])[0]
        assert program.validates_against(placement, reduction)
        assert placement.hoare_transitions
        blob = pickle.dumps(placement)
        assert b"DeviceState" not in blob and b"_Transitions" not in blob
        clone = pickle.loads(blob)
        assert clone == placement and vars(clone) == {"matrix": placement.matrix}
        assert clone.reduction_groups(reduction) == placement.reduction_groups(reduction)

    def test_a_sharded_plan_is_bit_identical_and_ships_no_table(self):
        topology = a100_system(num_nodes=2)
        serial = P2(topology).plan(self.QUERY)
        sharded = P2(topology).plan(dataclasses.replace(self.QUERY, shards=2))
        assert sharded.search["shards"] == 2
        sharded_dict, serial_dict = sharded.plan.to_dict(), serial.plan.to_dict()
        assert sharded_dict["strategies"] == serial_dict["strategies"]
        # Programs are indices into the step table: compare the groups too.
        assert sharded_dict["steps"] == serial_dict["steps"]
        for candidate, twin in zip(sharded.plan.candidates, serial.plan.candidates):
            blob = pickle.dumps(candidate)
            assert b"_Transitions" not in blob and b"hoare_transitions" not in blob
            # The counts came home in the shard's pickle.
            assert candidate.semantic_steps == twin.semantic_steps > 0
            assert candidate.semantic_transitions == twin.semantic_transitions > 0


class TestSharingIsPerRequest:
    COUNTERS = (
        "semantics.steps", "semantics.transitions", "profile.steps",
        "profile.steps_compiled", "synthesis.contexts_expanded",
    )

    def plan(self, topology, query):
        recorder = Recorder()
        service = PlanningService(topology, cache=PlanCache(None), recorder=recorder)
        service.plan(query)
        (run,) = [s for s in recorder.snapshot().spans if s.name == "search.run"]
        return {name: recorder.counter_value(name) for name in self.COUNTERS}, run.attrs

    def test_a_fresh_topology_shares_as_much_as_a_long_lived_ones_first_request(self):
        query = PlanQuery(
            axes=ParallelismAxes.of(2, 2, 8), request=ReductionRequest((0, 2)),
            bytes_per_device=4 * MB, max_program_size=3,
        )
        long_lived = a100_system(num_nodes=2)
        first, first_attrs = self.plan(long_lived, query)
        again, again_attrs = self.plan(long_lived, query)
        alone, alone_attrs = self.plan(a100_system(num_nodes=2), query)
        assert alone == first and alone_attrs == first_attrs
        assert first["semantics.steps"] > first["semantics.transitions"] > 0
        assert first["profile.steps"] > first["profile.steps_compiled"] > 0
        assert first_attrs["matrices"] == 3
        assert first_attrs["distinct_synthesis_problems"] == 2
        # Transitions and synthesis are search state: a second request on the
        # same topology object starts them from zero.  Step profiles are the
        # topology's: the second request compiles none.
        for name in ("semantics.steps", "semantics.transitions", "profile.steps",
                     "synthesis.contexts_expanded"):
            assert again[name] == first[name]
        assert again["profile.steps_compiled"] == 0 and again_attrs == first_attrs

    def test_distinct_problems_are_counted_the_same_sharded_and_budgeted(self):
        # Counted from the matrices reached, not inferred from who expanded
        # what: a sharded search (one synthesizer per shard and matrix) and the
        # budgeted path (one pass per size) report what the serial search does.
        query = PlanQuery(
            axes=ParallelismAxes.of(2, 2, 8), request=ReductionRequest((0, 2)),
            bytes_per_device=4 * MB, max_program_size=3,
        )
        topology = a100_system(num_nodes=2)
        _, serial = self.plan(topology, query)
        for variant in ({"shards": 2}, {"max_candidates": 100_000}):
            recorder = Recorder()
            service = PlanningService(topology, cache=PlanCache(None), recorder=recorder)
            service.plan(dataclasses.replace(query, **variant))
            runs = [s.attrs for s in recorder.snapshot().spans if s.name == "search.run"]
            whole = [a for a in runs if a["matrices"] == serial["matrices"]]
            assert len(whole) == 1, runs
            assert whole[0]["distinct_synthesis_problems"] == 2


"""Tests for repro.cost.profile: the compile/price split of the simulator.

The central contract: pricing a compiled :class:`SimulationProfile` is
**bit-identical** to the per-group reference simulation
(``tests/oracles/simulator.py``) — exact ``==`` on every float,
never ``approx`` — across payload ladders and both NCCL algorithms.  The
property test below exercises it over every program the synthesis pipeline
produces for a deterministic sample of shapes on both GCP systems.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.baselines.allreduce import default_all_reduce
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.profile import compile_profile, price_profile
from repro.cost.simulator import ProgramSimulator
from repro.errors import CostModelError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram, LoweredStep
from repro.synthesis.pipeline import synthesize_all
from repro.topology.links import LinkKind, LinkSpec
from repro.topology.topology import MachineTopology

from oracles.pipeline import (
    PAYLOAD_LADDER,
    collect_strategy_entries,
    evaluate_entries_serial,
    synthesized_programs,
)
from oracles.simulator import simulate_reference

MB = 1 << 20
ALGORITHMS = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE)


class TestBitIdenticalPricing:
    """Profile pricing == reference simulation, to the last ulp."""

    @pytest.mark.parametrize(
        "axes_sizes, request_axes",
        [((8, 4), (0,)), ((32,), (0,)), ((4, 8), (1,)), ((2, 4, 4), (0, 2))],
    )
    def test_a100_programs_price_identically(self, a100_2node, axes_sizes, request_axes):
        programs = synthesized_programs(a100_2node, axes_sizes, request_axes)
        assert programs, "fixture produced no programs"
        simulator = ProgramSimulator(a100_2node)
        rng = random.Random(20260728)
        sample = rng.sample(programs, min(len(programs), 12))
        for program in sample:
            profile = compile_profile(program, a100_2node)
            for payload in PAYLOAD_LADDER:
                for algorithm in ALGORITHMS:
                    reference = simulate_reference(simulator, program, payload, algorithm)
                    priced = price_profile(
                        profile, payload, algorithm, simulator.cost_model
                    )
                    # Exact dataclass equality: same floats for total and
                    # every step, same bottleneck links, sharings, payloads.
                    assert priced == reference
                    # The cached fast path goes through the same arithmetic.
                    assert simulator.simulate(program, payload, algorithm) == reference

    def test_v100_host_link_programs_price_identically(self, v100_2node):
        programs = synthesized_programs(v100_2node, (4, 4), (0,))
        simulator = ProgramSimulator(v100_2node)
        for program in programs:
            profile = compile_profile(program, v100_2node)
            for payload in PAYLOAD_LADDER:
                for algorithm in ALGORITHMS:
                    assert price_profile(
                        profile, payload, algorithm, simulator.cost_model
                    ) == simulate_reference(simulator, program, payload, algorithm)

    def test_custom_cost_model_prices_identically(self, a100_2node):
        model = CostModel(
            launch_overhead=1e-3, small_message_bytes=1 << 24, small_message_efficiency=0.25
        )
        simulator = ProgramSimulator(a100_2node, model)
        for program in synthesized_programs(a100_2node, (8, 4), (0,))[:6]:
            for payload in PAYLOAD_LADDER:
                assert simulator.simulate(program, payload) == simulate_reference(
                    simulator, program, payload
                )


class TestEquivalenceClasses:
    def test_replicated_cross_node_step_collapses_to_one_class(self, a100_2node):
        # 16 concurrent pair-groups, one per (gpu_i, gpu_i+16): all replicas
        # of one virtual grouping, so the analysis collapses to one class.
        step = LoweredStep(Collective.ALL_REDUCE, tuple((i, i + 16) for i in range(16)))
        program = LoweredProgram(num_devices=32, steps=(step,))
        profile = compile_profile(program, a100_2node)
        assert profile.steps[0].num_groups == 16
        assert profile.steps[0].num_classes == 1
        assert profile.steps[0].classes[0].count == 16
        assert profile.num_classes == 1
        assert profile.num_groups == 16

    def test_profile_is_payload_and_algorithm_independent(self, a100_2node):
        program = default_all_reduce(
            DevicePlacement(
                enumerate_parallelism_matrices(
                    a100_2node.hierarchy, ParallelismAxes.of(32)
                )[0]
            ),
            ReductionRequest.over(0),
        )
        profile = compile_profile(program, a100_2node)
        a = price_profile(profile, 64 * MB, NCCLAlgorithm.RING)
        b = price_profile(profile, 2 * MB, NCCLAlgorithm.TREE)
        assert a.bytes_per_device != b.bytes_per_device
        assert a.algorithm != b.algorithm

    def test_profiles_are_picklable_and_replica_count_independent(self, a100_2node):
        wide = LoweredStep(Collective.ALL_REDUCE, tuple((i, i + 16) for i in range(16)))
        narrow = LoweredStep(Collective.ALL_REDUCE, tuple((i, i + 16) for i in range(4)))
        wide_profile = compile_profile(
            LoweredProgram(num_devices=32, steps=(wide,), label="x"), a100_2node
        )
        narrow_profile = compile_profile(
            LoweredProgram(num_devices=32, steps=(narrow,), label="x"), a100_2node
        )
        assert pickle.loads(pickle.dumps(wide_profile)) == wide_profile
        # The whole point of shipping profiles to workers: replicas collapse
        # to one class, so the wire size does not grow with the group count.
        assert len(pickle.dumps(wide_profile)) == len(pickle.dumps(narrow_profile))


class TestExplicitEdgePaths:
    def zero_cost_topology(self) -> MachineTopology:
        def zero(name, kind, bw):
            return LinkSpec(name, kind, bandwidth=bw, latency=0.0)

        return MachineTopology(
            name="zero-latency",
            hierarchy=SystemHierarchy.from_pairs([("node", 2), ("gpu", 2)]),
            interconnects=(
                zero("nic", LinkKind.NIC, 8e9),
                zero("nvswitch", LinkKind.NVSWITCH, 270e9),
            ),
        )

    def test_empty_program_prices_to_zero_with_no_steps(self, a100_2node):
        program = LoweredProgram(num_devices=32, steps=(), label="noop")
        simulator = ProgramSimulator(a100_2node)
        for result in (
            simulator.simulate(program, 1 * MB),
            simulate_reference(simulator, program, 1 * MB),
            compile_profile(program, a100_2node).price(1 * MB),
        ):
            assert result.total_seconds == 0.0
            assert result.steps == ()

    def test_zero_payload_zero_overhead_reports_first_groups_link(self):
        """The worst-link fallback is the first group's link, not an accident.

        With zero payload, zero launch overhead and zero link latency every
        group prices to exactly 0.0s; the strict ``>`` never fires and the
        step must still report a real bottleneck link — pinned here to the
        first group's — with the 0.0 payload it was priced at.
        """
        topology = self.zero_cost_topology()
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 2), (1, 3)))
        program = LoweredProgram(num_devices=4, steps=(step,))
        model = CostModel(launch_overhead=0.0)
        simulator = ProgramSimulator(topology, model)
        for result in (
            simulator.simulate(program, 0),
            simulate_reference(simulator, program, 0),
            compile_profile(program, topology).price(0, cost_model=model),
        ):
            assert result.total_seconds == 0.0
            assert result.steps[0].seconds == 0.0
            assert result.steps[0].bottleneck_link == "nic"
            assert result.steps[0].payload_bytes == 0.0

    def test_zero_payload_with_latency_still_prices_positive(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 16),))
        program = LoweredProgram(num_devices=32, steps=(step,))
        simulator = ProgramSimulator(a100_2node)
        result = simulator.simulate(program, 0)
        assert result == simulate_reference(simulator, program, 0)
        assert result.total_seconds > 0.0  # launch overhead + hop latency
        assert result.steps[0].payload_bytes == 0.0

    def test_device_count_mismatch_rejected_at_compile(self, a100_2node, a100_4node):
        program = LoweredProgram(
            num_devices=64, steps=(LoweredStep(Collective.ALL_REDUCE, ((0, 1),)),)
        )
        with pytest.raises(CostModelError):
            compile_profile(program, a100_2node)
        with pytest.raises(CostModelError):
            ProgramSimulator(a100_2node).simulate(program, 1 * MB)

    def test_negative_payload_rejected_at_price(self, a100_2node):
        program = LoweredProgram(
            num_devices=32, steps=(LoweredStep(Collective.ALL_REDUCE, ((0, 1),)),)
        )
        profile = compile_profile(program, a100_2node)
        with pytest.raises(CostModelError):
            price_profile(profile, -1)


class TestProfileCache:
    def test_payload_ladder_hits_after_first_compile(self, a100_2node):
        programs = synthesized_programs(a100_2node, (8, 4), (0,))
        simulator = ProgramSimulator(a100_2node)
        unique_signatures = {p.signature() for p in programs}
        for payload in (1 * MB, 4 * MB, 16 * MB, 64 * MB):
            for program in programs:
                simulator.simulate(program, payload)
        assert simulator.profile_misses == len(unique_signatures)
        assert simulator.profile_hits == 4 * len(programs) - len(unique_signatures)
        assert len(simulator.profiles) == len(unique_signatures)

    def test_lru_evicts_oldest_signature(self, a100_2node, monkeypatch):
        import repro.cost.simulator as simulator_module

        monkeypatch.setattr(simulator_module, "PROFILE_CACHE_SIZE", 2)
        programs = [
            LoweredProgram(
                num_devices=32,
                steps=(LoweredStep(Collective.ALL_REDUCE, ((0, 1 + i),)),),
            )
            for i in range(3)
        ]
        simulator = ProgramSimulator(a100_2node)
        for program in programs:
            simulator.simulate(program, 1 * MB)
        assert (len(simulator.profiles), simulator.profiles.evicted) == (2, 1)
        # The first program was evicted: simulating it again recompiles.
        misses_before = simulator.profile_misses
        simulator.simulate(programs[0], 1 * MB)
        assert simulator.profile_misses == misses_before + 1

    def test_cache_hit_keeps_the_programs_own_label(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 16),))
        first = LoweredProgram(num_devices=32, steps=(step,), label="first")
        twin = LoweredProgram(num_devices=32, steps=(step,), label="twin")
        simulator = ProgramSimulator(a100_2node)
        assert simulator.simulate(first, MB).label == "first"
        assert simulator.simulate(twin, MB).label == "twin"  # hit, relabelled
        assert simulator.profile_hits == 1

    def test_clear_profiles(self, a100_2node):
        program = LoweredProgram(
            num_devices=32, steps=(LoweredStep(Collective.ALL_REDUCE, ((0, 16),)),)
        )
        simulator = ProgramSimulator(a100_2node)
        simulator.simulate(program, MB)
        simulator.profiles.clear()
        assert len(simulator.profiles) == 0
        simulator.simulate(program, MB)
        assert (simulator.profile_hits, simulator.profile_misses) == (0, 2)

    def test_peek_is_silent(self, a100_2node):
        program = LoweredProgram(
            num_devices=32, steps=(LoweredStep(Collective.ALL_REDUCE, ((0, 16),)),)
        )
        simulator = ProgramSimulator(a100_2node)
        assert simulator.profiles.peek(program.signature()) is None
        profile = simulator.profile_for(program)
        assert simulator.profiles.peek(program.signature()) is profile
        assert (simulator.profile_hits, simulator.profile_misses) == (0, 1)


class TestStaleBindingGuards:
    @pytest.mark.parametrize("spelling", ["P2", "PlanningService"])
    def test_planner_bindings_are_read_only(self, a100_2node, spelling):
        """A planner's simulator, shape memo and cache are bound to the topology
        and cost model it was built with, so neither can be reassigned — and a
        failed assignment leaves every later plan priced under the original
        model (a stale simulator used to price a new model's plans)."""
        from repro.api import P2
        from repro.query import PlanQuery
        from repro.service.engine import PlanningService
        from repro.topology.gcp import v100_system

        planner = {"P2": P2, "PlanningService": PlanningService}[spelling](a100_2node)
        first = PlanQuery((8, 4), (0,), bytes_per_device=1 * MB, max_program_size=2)
        planner.plan(first)
        with pytest.raises(AttributeError):
            planner.cost_model = CostModel(launch_overhead=1e-3)
        with pytest.raises(AttributeError):
            planner.topology = v100_system(num_nodes=2)
        assert planner.cost_model == CostModel()
        assert planner.topology is a100_2node

        second = PlanQuery((8, 4), (0,), bytes_per_device=4 * MB, max_program_size=2)
        best = planner.plan(second).plan.best.predicted_seconds
        assert best == P2(a100_2node, CostModel()).plan(second).plan.best.predicted_seconds

    def test_mismatched_device_count_is_rejected_not_deduped(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 1),))
        fits = LoweredProgram(num_devices=32, steps=(step,))
        misfit = LoweredProgram(num_devices=16, steps=(step,))  # same signature
        assert fits.signature() == misfit.signature()
        with pytest.raises(CostModelError):
            ProgramSimulator(a100_2node).simulate_many([fits, misfit], 1 * MB)


class TestEntryDeduplication:
    def test_serial_evaluation_dedups_identical_signatures(self, a100_2node):
        axes = ParallelismAxes.of(8, 4)
        request = ReductionRequest.over(0)
        candidates = synthesize_all(
            a100_2node.hierarchy, axes, request, max_program_size=3
        )
        entries = collect_strategy_entries(candidates, request)
        simulator = ProgramSimulator(a100_2node)
        predicted = evaluate_entries_serial(
            entries, a100_2node, CostModel(), 64 * MB, NCCLAlgorithm.RING, simulator
        )
        # Every entry still gets its prediction, and the values match a
        # dedup-free reference evaluation exactly.
        reference = ProgramSimulator(a100_2node)
        expected = [
            0.0
            if entry.lowered.num_steps == 0
            else simulate_reference(
                reference, entry.lowered, 64 * MB, NCCLAlgorithm.RING
            ).total_seconds
            for entry in entries
        ]
        assert predicted == expected
        # Only distinct signatures hit the simulator at all.
        unique = {
            e.lowered.signature() for e in entries if e.lowered.num_steps > 0
        }
        assert simulator.profile_hits + simulator.profile_misses == len(unique)

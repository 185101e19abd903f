"""Tests for repro.runtime.noise and repro.runtime.events (the testbed simulator)."""

from __future__ import annotations

import pytest

from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.errors import ReproError
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.runtime.events import Flow, FlowNetwork, TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.topology.gcp import a100_system, v100_system
from repro.topology.links import LinkKind

GIB = float(1 << 30)


class TestNoiseModel:
    def test_deterministic_with_seed(self):
        a, b = NoiseModel(seed=3), NoiseModel(seed=3)
        assert [a.flow_factor() for _ in range(5)] == [b.flow_factor() for _ in range(5)]

    def test_zero_sigma_means_no_noise(self):
        model = NoiseModel(sigma=0.0, step_jitter=0.0)
        assert model.flow_factor() == 1.0
        assert model.step_overhead_jitter() == 0.0

    def test_flow_factor_positive(self):
        model = NoiseModel(seed=1)
        assert all(model.flow_factor() > 0 for _ in range(100))

    def test_link_efficiencies_bounded(self):
        model = NoiseModel()
        for kind in LinkKind:
            assert 0 < model.link_efficiency(kind) <= 1

    def test_cross_domain_factor(self):
        model = NoiseModel(cross_domain_penalty=1.3)
        assert model.cross_domain_factor(True) == pytest.approx(1.3)
        assert model.cross_domain_factor(False) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            NoiseModel(sigma=-1)
        with pytest.raises(ReproError):
            NoiseModel(step_jitter=-1)
        with pytest.raises(ReproError):
            NoiseModel(cross_domain_penalty=0.5)
        with pytest.raises(ReproError):
            NoiseModel(efficiencies={LinkKind.NIC: 1.5})


class TestFlowNetwork:
    def test_single_flow_duration(self):
        network = FlowNetwork({("link", 0): 10.0})
        flows = [Flow(0, total_bytes=100.0, resources=(("link", 0),))]
        finish = network.run(flows)
        assert finish[0] == pytest.approx(10.0)

    def test_two_flows_share_a_link_fairly(self):
        network = FlowNetwork({("link", 0): 10.0})
        flows = [
            Flow(0, 100.0, (("link", 0),)),
            Flow(1, 100.0, (("link", 0),)),
        ]
        finish = network.run(flows)
        # Both progress at 5 B/s until done.
        assert finish[0] == pytest.approx(20.0)
        assert finish[1] == pytest.approx(20.0)

    def test_short_flow_frees_capacity_for_long_flow(self):
        network = FlowNetwork({("link", 0): 10.0})
        flows = [
            Flow(0, 50.0, (("link", 0),)),
            Flow(1, 150.0, (("link", 0),)),
        ]
        finish = network.run(flows)
        # Flow 0 finishes at t=10 (5 B/s); flow 1 then speeds up to 10 B/s.
        assert finish[0] == pytest.approx(10.0)
        assert finish[1] == pytest.approx(20.0)

    def test_disjoint_links_do_not_interact(self):
        network = FlowNetwork({("a", 0): 10.0, ("b", 0): 5.0})
        flows = [Flow(0, 100.0, (("a", 0),)), Flow(1, 100.0, (("b", 0),))]
        finish = network.run(flows)
        assert finish[0] == pytest.approx(10.0)
        assert finish[1] == pytest.approx(20.0)

    def test_multi_resource_flow_bound_by_slowest(self):
        network = FlowNetwork({("a", 0): 10.0, ("b", 0): 2.0})
        flows = [Flow(0, 20.0, (("a", 0), ("b", 0)))]
        assert network.run(flows)[0] == pytest.approx(10.0)

    def test_zero_byte_flow_finishes_immediately(self):
        network = FlowNetwork({("a", 0): 10.0})
        finish = network.run([Flow(0, 0.0, (("a", 0),), fixed_seconds=1.0)])
        assert finish[0] == pytest.approx(1.0)

    def test_unknown_resource_rejected(self):
        network = FlowNetwork({("a", 0): 10.0})
        with pytest.raises(ReproError):
            network.run([Flow(0, 1.0, (("zzz", 9),))])

    def test_invalid_flows_and_capacities(self):
        with pytest.raises(ReproError):
            FlowNetwork({("a", 0): 0.0})
        with pytest.raises(ReproError):
            Flow(0, -1.0, (("a", 0),))
        with pytest.raises(ReproError):
            Flow(0, 1.0, ())


class TestTestbedSimulator:
    @pytest.fixture
    def setup(self):
        system = a100_system(num_nodes=2)
        axes = ParallelismAxes.of(2, 16)
        request = ReductionRequest.over(0)
        matrix = next(
            m
            for m in enumerate_parallelism_matrices(system.hierarchy, axes)
            if m.entries == ((2, 1), (1, 16))
        )
        placement = DevicePlacement(matrix)
        program = default_all_reduce(placement, request)
        return system, program

    def test_measurement_is_reproducible_with_same_seed(self, setup):
        system, program = setup
        a = TestbedSimulator(system, NoiseModel(seed=11)).measure(program, GIB, num_runs=2)
        b = TestbedSimulator(system, NoiseModel(seed=11)).measure(program, GIB, num_runs=2)
        assert a.total_seconds == pytest.approx(b.total_seconds)
        assert a.per_run_seconds == pytest.approx(b.per_run_seconds)

    def test_different_seeds_differ(self, setup):
        system, program = setup
        a = TestbedSimulator(system, NoiseModel(seed=1)).measure(program, GIB, num_runs=1)
        b = TestbedSimulator(system, NoiseModel(seed=2)).measure(program, GIB, num_runs=1)
        assert a.total_seconds != pytest.approx(b.total_seconds)

    def test_average_over_runs(self, setup):
        system, program = setup
        result = TestbedSimulator(system).measure(program, GIB, num_runs=3)
        assert len(result.per_run_seconds) == 3
        assert result.total_seconds == pytest.approx(
            sum(result.per_run_seconds) / 3
        )
        assert "measured" in result.describe()

    def test_measured_close_to_analytic_for_simple_case(self, setup):
        """The two models are different but must agree on the order of magnitude."""
        from repro.cost.simulator import simulate_program

        system, program = setup
        measured = TestbedSimulator(system, NoiseModel(seed=0)).measure(program, GIB, num_runs=2)
        predicted = simulate_program(program, system, GIB).total_seconds
        assert 0.3 * predicted < measured.total_seconds < 3.0 * predicted

    def test_larger_payload_takes_longer(self, setup):
        system, program = setup
        testbed = TestbedSimulator(system, NoiseModel(seed=0, sigma=0.0))
        small = testbed.measure(program, GIB, num_runs=1).total_seconds
        large = testbed.measure(program, 4 * GIB, num_runs=1).total_seconds
        assert large > 2 * small

    def test_hierarchical_program_beats_allreduce_on_testbed_too(self):
        system = a100_system(num_nodes=2)
        axes = ParallelismAxes.of(32)
        request = ReductionRequest.over(0)
        matrix = enumerate_parallelism_matrices(system.hierarchy, axes)[0]
        placement = DevicePlacement(matrix)
        hierarchy = build_synthesis_hierarchy(matrix, request)
        testbed = TestbedSimulator(system, NoiseModel(seed=0))
        baseline = testbed.measure(default_all_reduce(placement, request), GIB, num_runs=1)
        hierarchical = testbed.measure(blueconnect(hierarchy, placement), GIB, num_runs=1)
        assert hierarchical.total_seconds < baseline.total_seconds

    def test_v100_cross_domain_penalty_increases_measurement(self):
        system = v100_system(num_nodes=2)
        axes = ParallelismAxes.of(16)
        request = ReductionRequest.over(0)
        matrix = enumerate_parallelism_matrices(system.hierarchy, axes)[0]
        placement = DevicePlacement(matrix)
        program = default_all_reduce(placement, request)
        no_penalty = TestbedSimulator(
            system, NoiseModel(seed=0, sigma=0.0, cross_domain_penalty=1.0)
        ).measure(program, GIB, num_runs=1)
        with_penalty = TestbedSimulator(
            system, NoiseModel(seed=0, sigma=0.0, cross_domain_penalty=1.5)
        ).measure(program, GIB, num_runs=1)
        assert with_penalty.total_seconds > no_penalty.total_seconds

    def test_argument_validation(self, setup):
        system, program = setup
        testbed = TestbedSimulator(system)
        with pytest.raises(ReproError):
            testbed.measure(program, GIB, num_runs=0)
        other = a100_system(num_nodes=4)
        with pytest.raises(ReproError):
            TestbedSimulator(other).measure(program, GIB)

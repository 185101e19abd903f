"""Tests for repro.cost.batch: vectorized pricing over compiled profiles.

The contract under test is the same one ``tests/test_cost_profile.py``
enforces for the compile/price split: **exact float equality** (``==``,
never ``approx``) between the batched numpy kernels and the scalar
reference — totals, per-step seconds, bottleneck links *and* payloads,
lower bounds — across payload ladders, both NCCL algorithms and every
program the synthesis pipeline produces for a sample of shapes.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.batch import (
    BatchPricer,
    BatchPriceResult,
    have_numpy,
    price_programs,
)
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.profile import price_profile
from repro.cost.simulator import ProgramSimulator
from repro.errors import CostModelError
from tests.test_cost_profile import PAYLOAD_LADDER, synthesized_programs

MB = 1 << 20
ALGORITHMS = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE)
# Cost models with the derating threshold straddling the ladder payloads, so
# both bandwidth branches of the kernel are exercised.
COST_MODELS = (
    CostModel(),
    CostModel(launch_overhead=0.0, small_message_bytes=0.0),
    CostModel(small_message_bytes=1 << 28, small_message_efficiency=0.25),
)


def _sample_programs(topology, axes_sizes, request_axes, k=10, seed=20260808):
    programs = synthesized_programs(topology, axes_sizes, request_axes)
    assert programs, "fixture produced no programs"
    rng = random.Random(seed)
    return rng.sample(programs, min(len(programs), k))


class TestExactEquality:
    """BatchPricer == scalar price_profile, to the last ulp."""

    @pytest.mark.parametrize(
        "axes_sizes, request_axes",
        [((8, 4), (0,)), ((32,), (0,)), ((4, 8), (1,)), ((2, 4, 4), (0, 2))],
    )
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_results_equal_scalar_across_ladder(
        self, a100_2node, axes_sizes, request_axes, algorithm
    ):
        simulator = ProgramSimulator(a100_2node)
        for program in _sample_programs(a100_2node, axes_sizes, request_axes):
            profile = simulator.profile_for(program)
            pricer = BatchPricer(profile)
            for model in COST_MODELS:
                batch = pricer.price(
                    PAYLOAD_LADDER, algorithm, model, label=program.label
                )
                assert batch.vectorized == have_numpy()
                for column, payload in enumerate(PAYLOAD_LADDER):
                    scalar = price_profile(
                        profile, payload, algorithm, model, label=program.label
                    )
                    # Exact dataclass equality: total, per-step seconds,
                    # bottleneck links, sharings, payloads.
                    assert batch.result(column, label=program.label) == scalar
                    assert batch.total(column) == scalar.total_seconds
                assert batch.totals == [
                    price_profile(profile, p, algorithm, model).total_seconds
                    for p in PAYLOAD_LADDER
                ]

    def test_v100_host_link_results_equal_scalar(self, v100_2node):
        simulator = ProgramSimulator(v100_2node)
        for program in _sample_programs(v100_2node, (4, 4), (0,)):
            profile = simulator.profile_for(program)
            pricer = BatchPricer(profile)
            for algorithm in ALGORITHMS:
                batch = pricer.price(PAYLOAD_LADDER, algorithm, simulator.cost_model)
                for column, payload in enumerate(PAYLOAD_LADDER):
                    assert batch.result(column) == price_profile(
                        profile, payload, algorithm, simulator.cost_model
                    )

    def test_grid_covers_both_algorithms(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        pricer = BatchPricer(simulator.profile_for(program))
        grid = pricer.grid(PAYLOAD_LADDER, ALGORITHMS, simulator.cost_model)
        assert set(grid) == set(ALGORITHMS)
        for algorithm, batch in grid.items():
            assert batch.totals == [
                simulator.simulate(program, p, algorithm).total_seconds
                for p in PAYLOAD_LADDER
            ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lower_bounds_equal_scalar(self, a100_2node, algorithm):
        simulator = ProgramSimulator(a100_2node)
        for program in _sample_programs(a100_2node, (8, 4), (0,)):
            profile = simulator.profile_for(program)
            pricer = BatchPricer(profile)
            for model in COST_MODELS:
                bounds = pricer.lower_bounds(PAYLOAD_LADDER, algorithm, model)
                assert bounds == [
                    profile.lower_bound(p, algorithm, model) for p in PAYLOAD_LADDER
                ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_price_programs_equals_per_profile_pricing(self, a100_2node, algorithm):
        simulator = ProgramSimulator(a100_2node)
        programs = _sample_programs(a100_2node, (8, 4), (0,), k=16)
        pricers = [
            BatchPricer(simulator.profile_for(program)) for program in programs
        ]
        for model in COST_MODELS:
            for payload in PAYLOAD_LADDER:
                totals = price_programs(pricers, payload, algorithm, model)
                assert totals == [
                    price_profile(
                        pricer.profile, payload, algorithm, model
                    ).total_seconds
                    for pricer in pricers
                ]


class TestScalarFallback:
    """With numpy masked out, every entry point returns identical floats."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        import repro.cost.batch as batch

        monkeypatch.setattr(batch, "_np", None)

    def test_price_falls_back_bit_identically(self, a100_2node, no_numpy):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        profile = simulator.profile_for(program)
        pricer = BatchPricer(profile)
        assert not pricer.vectorized and not have_numpy()
        batch = pricer.price(PAYLOAD_LADDER, NCCLAlgorithm.RING)
        assert not batch.vectorized
        for column, payload in enumerate(PAYLOAD_LADDER):
            assert batch.result(column) == price_profile(
                profile, payload, NCCLAlgorithm.RING, CostModel()
            )
        assert pricer.lower_bounds(PAYLOAD_LADDER) == [
            profile.lower_bound(p, NCCLAlgorithm.RING, CostModel())
            for p in PAYLOAD_LADDER
        ]
        assert price_programs([pricer], 1 * MB) == [
            price_profile(profile, 1 * MB, NCCLAlgorithm.RING, CostModel()).total_seconds
        ]

    def test_simulator_counts_fallbacks(self, a100_2node, no_numpy):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        batch = simulator.simulate_batch(program, PAYLOAD_LADDER)
        assert not batch.vectorized
        assert simulator.batch_fallbacks == 1
        assert simulator.batch_prices == 0


class TestValidation:
    def test_empty_payload_vector_is_rejected(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        pricer = BatchPricer(simulator.profile_for(program))
        with pytest.raises(CostModelError, match="non-empty"):
            pricer.price([])
        with pytest.raises(CostModelError, match="non-empty"):
            simulator.simulate_batch(program, [])

    def test_negative_payload_in_vector_is_rejected(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        pricer = BatchPricer(simulator.profile_for(program))
        with pytest.raises(CostModelError, match="non-negative"):
            pricer.price([1 * MB, -1.0])
        with pytest.raises(CostModelError, match="non-negative"):
            pricer.lower_bounds([-1.0])
        with pytest.raises(CostModelError, match="non-negative"):
            price_programs([pricer], -1.0)

    def test_device_mismatch_is_rejected(self, a100_2node, v100_2node):
        program = _sample_programs(v100_2node, (4, 4), (0,), k=1)[0]
        simulator = ProgramSimulator(a100_2node)
        with pytest.raises(CostModelError, match="devices"):
            simulator.simulate_batch(program, PAYLOAD_LADDER)
        with pytest.raises(CostModelError, match="devices"):
            simulator.simulate_many([program], 1 * MB)


class TestSimulatorBatching:
    """simulate_batch / simulate_many."""

    def test_simulate_batch_equals_per_payload_simulate(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        reference = ProgramSimulator(a100_2node)
        for program in _sample_programs(a100_2node, (8, 4), (0,), k=6):
            for algorithm in ALGORITHMS:
                batch = simulator.simulate_batch(program, PAYLOAD_LADDER, algorithm)
                results = batch.results(label=program.label)
                assert len(results) == len(PAYLOAD_LADDER)
                for payload, result in zip(PAYLOAD_LADDER, results):
                    assert result == reference.simulate(program, payload, algorithm)

    def test_simulate_many_equals_per_program_simulate(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        reference = ProgramSimulator(a100_2node)
        programs = _sample_programs(a100_2node, (8, 4), (0,), k=12)
        for algorithm in ALGORITHMS:
            totals = simulator.simulate_many(programs, 32 * MB, algorithm)
            assert totals == [
                reference.simulate(p, 32 * MB, algorithm).total_seconds
                for p in programs
            ]
        # Profile hit/miss accounting is identical to per-program simulate.
        assert simulator.profile_misses == reference.profile_misses
        assert simulator.profile_hits == reference.profile_hits

    def test_clear_profiles_drops_pricers(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        simulator.simulate_batch(program, PAYLOAD_LADDER)
        assert simulator._pricers and simulator.cached_profiles == 1
        simulator.clear_profiles()
        assert simulator._pricers == {} and simulator.cached_profiles == 0


class TestBatchPriceResultShape:
    def test_bottlenecks_match_scalar_links(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        profile = simulator.profile_for(program)
        pricer = BatchPricer(profile)
        batch = pricer.price(PAYLOAD_LADDER, NCCLAlgorithm.RING, simulator.cost_model)
        for column, payload in enumerate(PAYLOAD_LADDER):
            scalar = price_profile(
                profile, payload, NCCLAlgorithm.RING, simulator.cost_model
            )
            for s, class_index in enumerate(batch.bottlenecks(column)):
                step = profile.steps[s]
                if class_index < 0:
                    assert not step.classes
                    continue
                assert (
                    step.classes[class_index].link_name
                    == scalar.steps[s].bottleneck_link
                )

    def test_from_scalar_round_trip(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        profile = simulator.profile_for(program)
        scalar = BatchPriceResult._from_scalar(
            profile, list(PAYLOAD_LADDER), NCCLAlgorithm.RING, CostModel(), None
        )
        assert scalar.num_payloads == len(PAYLOAD_LADDER)
        assert not scalar.vectorized
        vectorized = BatchPricer(profile).price(PAYLOAD_LADDER)
        if vectorized.vectorized:
            assert scalar.totals == vectorized.totals
            for column in range(scalar.num_payloads):
                assert scalar.result(column) == vectorized.result(column)
                assert scalar.bottlenecks(column) == vectorized.bottlenecks(column)

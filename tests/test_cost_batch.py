"""Tests for repro.cost.batch: many profiles priced at one payload.

The contract under test is the same one ``tests/test_cost_profile.py``
enforces for the compile/price split: **exact float equality** (``==``,
never ``approx``) between :func:`price_programs` (directly and through
:meth:`ProgramSimulator.simulate_many`) and per-program scalar pricing —
across a payload ladder that crosses the small-message threshold, both NCCL
algorithms, the A100 and the V100 host-link topologies, zero-step programs,
and every program the synthesis pipeline produces for a sample of shapes.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.batch import BatchPricer, price_programs
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.profile import price_profile
from repro.cost.simulator import ProgramSimulator
from repro.errors import CostModelError
from repro.synthesis.lowering import LoweredProgram

from oracles.pipeline import PAYLOAD_LADDER, synthesized_programs
from oracles.simulator import simulate_reference

MB = 1 << 20
ALGORITHMS = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE)
# Cost models with the derating threshold straddling the ladder payloads, so
# both bandwidth branches of the pricing are exercised.
COST_MODELS = (
    CostModel(),
    CostModel(launch_overhead=0.0, small_message_bytes=0.0),
    CostModel(small_message_bytes=1 << 28, small_message_efficiency=0.25),
)
# (system fixture, axes sizes, reduced axes): the A100 shapes of the profile
# tests plus the V100 topology, whose NVLink ring adds host-link classes.
SHAPES = [
    ("a100_2node", (8, 4), (0,)),
    ("a100_2node", (32,), (0,)),
    ("a100_2node", (4, 8), (1,)),
    ("a100_2node", (2, 4, 4), (0, 2)),
    ("v100_2node", (4, 4), (0,)),
    ("v100_2node", (8, 2), (1,)),
]


def _sample_programs(topology, axes_sizes, request_axes, k=10, seed=20260808):
    programs = synthesized_programs(topology, axes_sizes, request_axes)
    assert programs, "fixture produced no programs"
    rng = random.Random(seed)
    return rng.sample(programs, min(len(programs), k))


def test_payload_ladder_crosses_the_small_message_threshold():
    threshold = CostModel().small_message_bytes
    assert min(PAYLOAD_LADDER) < threshold <= max(PAYLOAD_LADDER)


class TestExactEquality:
    """price_programs / simulate_many == per-program scalar pricing, to the ulp."""

    @pytest.mark.parametrize("system, axes_sizes, request_axes", SHAPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_price_programs_equals_per_profile_pricing(
        self, request, system, axes_sizes, request_axes, algorithm
    ):
        topology = request.getfixturevalue(system)
        simulator = ProgramSimulator(topology)
        programs = _sample_programs(topology, axes_sizes, request_axes, k=16)
        pricers = [BatchPricer(simulator.profile_for(program)) for program in programs]
        for model in COST_MODELS:
            for payload in PAYLOAD_LADDER:
                totals = price_programs(pricers, payload, algorithm, model)
                assert totals == [
                    price_profile(pricer.profile, payload, algorithm, model).total_seconds
                    for pricer in pricers
                ]

    @pytest.mark.parametrize("system, axes_sizes, request_axes", SHAPES)
    def test_simulate_many_equals_per_program_simulate(
        self, request, system, axes_sizes, request_axes
    ):
        topology = request.getfixturevalue(system)
        simulator = ProgramSimulator(topology)
        reference = ProgramSimulator(topology)
        programs = _sample_programs(topology, axes_sizes, request_axes, k=12)
        # A zero-step program in the middle prices to 0.0 and shifts nothing.
        empty = LoweredProgram(num_devices=topology.num_devices, steps=())
        programs.insert(len(programs) // 2, empty)
        for algorithm in ALGORITHMS:
            for payload in PAYLOAD_LADDER:
                totals = simulator.simulate_many(programs, payload, algorithm)
                assert totals == [
                    reference.simulate(p, payload, algorithm).total_seconds
                    for p in programs
                ]
                assert totals == [
                    simulate_reference(reference, p, payload, algorithm).total_seconds
                    for p in programs
                ]
        # Profile hit/miss accounting is identical to per-program simulate.
        assert simulator.profile_misses == reference.profile_misses
        assert simulator.profile_hits == reference.profile_hits

    def test_zero_step_programs_alone_are_free(self, a100_2node):
        empty = LoweredProgram(num_devices=a100_2node.num_devices, steps=())
        pricer = BatchPricer(ProgramSimulator(a100_2node).profile_for(empty))
        assert price_programs([pricer, pricer], 1 * MB) == [0.0, 0.0]
        assert price_programs([], 1 * MB) == []

    def test_simulate_many_counts_one_kernel_per_call(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        programs = _sample_programs(a100_2node, (8, 4), (0,), k=5)
        simulator.simulate_many(programs, 1 * MB)
        simulator.simulate_many(programs[:2], 2 * MB)
        assert simulator.batch_prices == 2
        assert simulator.batch_payloads == len(programs) + 2


class TestValidation:
    def test_negative_payload_is_rejected(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        program = _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        pricer = BatchPricer(simulator.profile_for(program))
        with pytest.raises(CostModelError, match="non-negative"):
            price_programs([pricer], -1.0)
        with pytest.raises(CostModelError, match="non-negative"):
            simulator.simulate_many([program], -1.0)

    def test_device_mismatch_is_rejected(self, a100_2node, v100_2node):
        program = _sample_programs(v100_2node, (4, 4), (0,), k=1)[0]
        simulator = ProgramSimulator(a100_2node)
        with pytest.raises(CostModelError, match="devices"):
            simulator.simulate_many([program], 1 * MB)


class TestRetiredSurface:
    """The payload-vector pricer, the numpy-less fallback and the numpy kernel are gone."""

    def test_numpy_kernel_is_gone(self):
        import repro.cost.batch as batch

        assert not hasattr(batch, "_Rows")
        assert not hasattr(batch, "_np")

    def test_evaluation_package_reexports_nothing(self):
        import repro.evaluation

        for retired in ("SweepRunner", "build_table3"):
            assert not hasattr(repro.evaluation, retired)

    def test_fallback_probe_is_gone(self):
        with pytest.raises(ImportError):
            from repro.cost.batch import have_numpy  # noqa: F401

    def test_payload_vector_result_is_gone(self):
        with pytest.raises(ImportError):
            from repro.cost import BatchPriceResult  # noqa: F401

    def test_simulator_has_no_payload_vector_entry_point(self, a100_2node):
        simulator = ProgramSimulator(a100_2node)
        assert not hasattr(simulator, "simulate_batch")
        assert not hasattr(simulator, "batch_fallbacks")

    def test_batch_pricer_only_holds_a_profile(self, a100_2node):
        profile = ProgramSimulator(a100_2node).profile_for(
            _sample_programs(a100_2node, (8, 4), (0,), k=1)[0]
        )
        pricer = BatchPricer(profile)
        assert pricer.profile is profile
        for retired in ("price", "grid", "lower_bounds", "table", "vectorized"):
            assert not hasattr(pricer, retired)

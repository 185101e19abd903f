"""Tests for the planning service facade and batch API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import P2
from repro.errors import QueryError
from repro.query import PlanQuery
from repro.service import PlanCache, PlanningService
from repro.topology.gcp import a100_system

MB = 1 << 20


def _ranking(plan):
    return [
        (s.matrix.describe(), s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


@pytest.fixture(scope="module")
def topology():
    return a100_system(num_nodes=2)


@pytest.fixture(scope="module")
def query_84():
    return PlanQuery(axes=(8, 4), request=(0,), bytes_per_device=64 * MB, max_program_size=3)


class TestPlanningService:
    def test_warm_plan_identical_to_cold(self, topology, query_84):
        service = PlanningService(topology)
        cold = service.plan(query_84)
        warm = service.plan(query_84)
        assert not cold.cache_hit
        assert warm.cache_tier == "memory"
        assert _ranking(warm.plan) == _ranking(cold.plan)
        assert [s.program.signature() for s in warm.plan.strategies] == [
            s.program.signature() for s in cold.plan.strategies
        ]

    def test_matches_direct_p2(self, topology, query_84):
        direct = P2(topology).plan(query_84)
        served = PlanningService(topology).plan(query_84)
        assert _ranking(served.plan) == _ranking(direct.plan)
        assert served.fingerprint == direct.fingerprint

    def test_cold_outcome_carries_timings(self, topology, query_84):
        outcome = PlanningService(topology).plan(query_84)
        assert outcome.synthesis_seconds > 0
        assert outcome.evaluation_seconds > 0
        assert outcome.total_seconds >= outcome.synthesis_seconds
        assert outcome.num_candidates == 2
        assert outcome.num_strategies > 0
        assert len(outcome.fingerprint) == 64
        assert "cold" in outcome.describe()

    def test_rejects_invalid_payload(self):
        with pytest.raises(QueryError):
            PlanQuery(axes=(32,), request=(0,), bytes_per_device=0)

    def test_recovers_from_semantically_corrupt_cache_entry(
        self, topology, query_84, tmp_path
    ):
        """A valid envelope around a broken plan is a miss, not a crash."""
        import json

        service = PlanningService(topology, cache=PlanCache(directory=tmp_path))
        cold = service.plan(query_84)
        path = tmp_path / f"{cold.fingerprint}.json"
        envelope = json.loads(path.read_text())
        del envelope["plan"]["strategies"][0]["matrix"]  # still JSON, no longer a plan
        path.write_text(json.dumps(envelope))

        fresh = PlanningService(topology, cache=PlanCache(directory=tmp_path))
        recovered = fresh.plan(query_84)
        assert not recovered.cache_hit
        assert fresh.cache.stats.corrupt_entries == 1
        # The unusable lookup must not inflate the hit rate.
        assert fresh.cache.stats.hits == 0
        assert fresh.cache.stats.misses == 1
        assert _ranking(recovered.plan) == _ranking(cold.plan)
        # The recomputed plan was re-stored and now serves warm again.
        assert fresh.plan(query_84).cache_tier == "memory"

    def test_query_program_size_is_the_only_limit(self, topology, query_84):
        service = PlanningService(topology)
        small = service.plan(query_84)
        large = service.plan(dataclasses.replace(query_84, max_program_size=4))
        assert small.fingerprint != large.fingerprint
        assert not large.cache_hit
        assert large.num_strategies > small.num_strategies

    def test_describe(self, topology, query_84):
        service = PlanningService(topology)
        service.plan(query_84)
        text = service.describe()
        assert "served=1" in text
        assert "PlanCache" in text
        assert "max_program_size" not in text


class TestRetiredSurface:
    """The pre-PlanQuery API generation is gone, not deprecated."""

    def test_program_size_is_not_a_tool_or_service_field(self, topology):
        with pytest.raises(TypeError):
            PlanningService(topology, max_program_size=3)
        with pytest.raises(TypeError):
            P2(topology, max_program_size=3)

    def test_legacy_request_types_are_gone(self):
        with pytest.raises(ImportError):
            from repro.service import PlanningRequest  # noqa: F401
        import repro.service.engine as engine

        for name in ("PlanningRequest", "PlanningResponse", "RequestStats"):
            assert not hasattr(engine, name)

    @pytest.mark.parametrize("name", ["fingerprint", "optimize", "submit", "optimize_many"])
    def test_legacy_service_methods_are_gone(self, topology, name):
        assert not hasattr(PlanningService(topology), name)


class TestBatchAPI:
    def test_plan_many_dedupes_identical_queries(self, topology, query_84):
        service = PlanningService(topology)
        other = dataclasses.replace(query_84, request=(1,))
        outcomes = service.plan_many([query_84, other, query_84])
        assert len(outcomes) == 3
        tiers = [outcome.cache_tier for outcome in outcomes]
        assert tiers == [None, None, "memory"]
        # The duplicate shares the first answer's ranking exactly.
        assert _ranking(outcomes[2].plan) == _ranking(outcomes[0].plan)

    def test_batch_heterogeneous_algorithms_get_distinct_plans(self, topology, query_84):
        ring = dataclasses.replace(query_84, algorithm="ring")
        tree = dataclasses.replace(query_84, algorithm="tree")
        service = PlanningService(topology)
        outcomes = service.plan_many([ring, tree])
        assert outcomes[0].fingerprint != outcomes[1].fingerprint
        assert all(not outcome.cache_hit for outcome in outcomes)

    def test_warm_reports_cold_count(self, topology, query_84):
        service = PlanningService(topology)
        assert service.warm([query_84]) == 1
        assert service.warm([query_84]) == 0

    def test_disk_warm_start_across_services(self, topology, query_84, tmp_path):
        first = PlanningService(topology, cache=PlanCache(directory=tmp_path))
        cold = first.plan(query_84)

        second = PlanningService(topology, cache=PlanCache(directory=tmp_path))
        warm = second.plan(query_84)
        assert warm.cache_tier == "disk"
        assert _ranking(warm.plan) == _ranking(cold.plan)


class TestShardedPlanning:
    """Sharded search is the one parallel path; it must agree with serial."""

    def test_sharded_ranking_identical_to_serial(self, topology, query_84):
        p2 = P2(topology)
        serial = p2.plan(query_84)
        sharded = p2.plan(dataclasses.replace(query_84, shards=2))
        assert sharded.search["shards"] == 2
        assert _ranking(sharded.plan) == _ranking(serial.plan)

    def test_sharded_service_matches_and_shares_the_serial_cache(
        self, topology, query_84
    ):
        serial = PlanningService(topology).plan(query_84)
        service = PlanningService(topology)
        sharded = service.plan(dataclasses.replace(query_84, shards=2))
        assert not sharded.cache_hit
        assert _ranking(sharded.plan) == _ranking(serial.plan)
        # shards is fingerprint-neutral: the serial query is served the
        # sharded plan from the cache.
        warm = service.plan(query_84)
        assert warm.cache_hit and warm.fingerprint == sharded.fingerprint
        assert _ranking(warm.plan) == _ranking(serial.plan)

    def test_retired_worker_knob_is_rejected(self, topology):
        with pytest.raises(TypeError):
            PlanningService(topology, **{"_".join(("n", "workers")): 2})
        assert "workers" not in PlanningService(topology).describe()


class TestBatchedSimulation:
    def test_zero_step_programs_are_free(self, topology):
        from repro.cost.simulator import ProgramSimulator
        from repro.synthesis.lowering import LoweredProgram

        empty = LoweredProgram(num_devices=topology.num_devices, steps=())
        simulator = ProgramSimulator(topology)
        assert simulator.simulate_many([empty, empty], 1 * MB) == [0.0, 0.0]
        assert simulator.simulate_many([], 1 * MB) == []

    def test_simulate_many_preserves_input_order(self, topology, query_84):
        from repro.cost.model import CostModel
        from repro.cost.nccl import NCCLAlgorithm
        from repro.cost.simulator import ProgramSimulator
        from repro.synthesis.pipeline import synthesize_all

        from oracles.pipeline import collect_strategy_entries, evaluate_entries_serial

        candidates = synthesize_all(
            topology.hierarchy, query_84.axes, query_84.request, max_program_size=3
        )
        entries = [
            entry
            for entry in collect_strategy_entries(candidates, query_84.request)
            if entry.lowered.num_steps > 0
        ]
        programs = [entry.lowered for entry in entries]
        assert len(programs) > 1
        serial = evaluate_entries_serial(
            entries, topology, CostModel(), 64 * MB, NCCLAlgorithm.RING
        )
        simulator = ProgramSimulator(topology)
        batched = simulator.simulate_many(programs, 64 * MB, NCCLAlgorithm.RING)
        assert batched == serial
        reversed_batch = simulator.simulate_many(
            programs[::-1], 64 * MB, NCCLAlgorithm.RING
        )
        assert reversed_batch == serial[::-1]

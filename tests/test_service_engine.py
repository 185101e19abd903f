"""Tests for the planning service facade and batch API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import P2
from repro.errors import EvaluationError, ServiceError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.service import PlanCache, PlanningRequest, PlanningService
from repro.topology.gcp import a100_system, v100_system

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
def request_84():
    return PlanningRequest(
        axes=ParallelismAxes.of(8, 4),
        request=ReductionRequest.over(0),
        bytes_per_device=64 * MB,
    )


class TestPlanningService:
    def test_warm_plan_identical_to_cold(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        cold = service.submit(request_84)
        warm = service.submit(request_84)
        assert not cold.stats.cache_hit
        assert warm.stats.cache_tier == "memory"
        assert _ranking(warm.plan) == _ranking(cold.plan)
        assert [s.program.signature() for s in warm.plan.strategies] == [
            s.program.signature() for s in cold.plan.strategies
        ]

    def test_matches_direct_p2(self, topology, request_84):
        direct = P2(topology, max_program_size=3).optimize(
            request_84.axes, request_84.request, request_84.bytes_per_device
        )
        served = PlanningService(topology, max_program_size=3).submit(request_84)
        assert _ranking(served.plan) == _ranking(direct)

    def test_cold_stats_carry_timings(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        stats = service.submit(request_84).stats
        assert stats.synthesis_seconds > 0
        assert stats.evaluation_seconds > 0
        assert stats.total_seconds >= stats.synthesis_seconds
        assert stats.num_candidates == 2
        assert stats.num_strategies > 0
        assert len(stats.fingerprint) == 64
        assert "cold" in stats.describe()

    def test_rejects_invalid_payload(self, topology):
        with pytest.raises(ServiceError):
            PlanningRequest(ParallelismAxes.of(32), ReductionRequest.over(0), 0)

    def test_p2_service_wiring(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        p2 = P2(topology, max_program_size=3)
        plan = p2.optimize(
            request_84.axes,
            request_84.request,
            request_84.bytes_per_device,
            service=service,
        )
        assert service.requests_served == 1
        again = p2.optimize(
            request_84.axes,
            request_84.request,
            request_84.bytes_per_device,
            service=service,
        )
        assert service.cache.stats.hits == 1
        assert _ranking(again) == _ranking(plan)

    def test_recovers_from_semantically_corrupt_cache_entry(
        self, topology, request_84, tmp_path
    ):
        """A valid envelope around a broken plan is a miss, not a crash."""
        import json

        service = PlanningService(
            topology, max_program_size=3, cache=PlanCache(directory=tmp_path)
        )
        cold = service.submit(request_84)
        path = tmp_path / f"{cold.stats.fingerprint}.json"
        envelope = json.loads(path.read_text())
        del envelope["plan"]["strategies"][0]["matrix"]  # still JSON, no longer a plan
        path.write_text(json.dumps(envelope))

        fresh = PlanningService(
            topology, max_program_size=3, cache=PlanCache(directory=tmp_path)
        )
        recovered = fresh.submit(request_84)
        assert not recovered.stats.cache_hit
        assert fresh.cache.stats.corrupt_entries == 1
        # The unusable lookup must not inflate the hit rate.
        assert fresh.cache.stats.hits == 0
        assert fresh.cache.stats.misses == 1
        assert _ranking(recovered.plan) == _ranking(cold.plan)
        # The recomputed plan was re-stored and now serves warm again.
        assert fresh.submit(request_84).stats.cache_tier == "memory"

    def test_p2_rejects_mismatched_service_knobs(self, topology, request_84):
        service = PlanningService(topology, max_program_size=5)
        p2 = P2(topology, max_program_size=3)
        with pytest.raises(EvaluationError):
            p2.optimize(
                request_84.axes,
                request_84.request,
                request_84.bytes_per_device,
                service=service,
            )

    def test_p2_rejects_mismatched_service_topology(self, request_84):
        service = PlanningService(v100_system(num_nodes=4))
        p2 = P2(a100_system(num_nodes=2))
        with pytest.raises(EvaluationError):
            p2.optimize(
                request_84.axes,
                request_84.request,
                request_84.bytes_per_device,
                service=service,
            )

    def test_describe(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        service.submit(request_84)
        text = service.describe()
        assert "served=1" in text
        assert "PlanCache" in text


class TestBatchAPI:
    def test_optimize_many_dedupes_identical_queries(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        other = PlanningRequest(
            axes=ParallelismAxes.of(8, 4),
            request=ReductionRequest.over(1),
            bytes_per_device=64 * MB,
        )
        responses = service.optimize_many([request_84, other, request_84])
        assert len(responses) == 3
        tiers = [r.stats.cache_tier for r in responses]
        assert tiers == [None, None, "memory"]
        # The duplicate shares the first answer's ranking exactly.
        assert _ranking(responses[2].plan) == _ranking(responses[0].plan)

    def test_batch_heterogeneous_algorithms_get_distinct_plans(self, topology):
        from repro.cost.nccl import NCCLAlgorithm

        ring = PlanningRequest(
            ParallelismAxes.of(8, 4), ReductionRequest.over(0), 64 * MB,
            algorithm=NCCLAlgorithm.RING,
        )
        tree = PlanningRequest(
            ParallelismAxes.of(8, 4), ReductionRequest.over(0), 64 * MB,
            algorithm=NCCLAlgorithm.TREE,
        )
        service = PlanningService(topology, max_program_size=3)
        responses = service.optimize_many([ring, tree])
        assert responses[0].stats.fingerprint != responses[1].stats.fingerprint
        assert all(not r.stats.cache_hit for r in responses)

    def test_warm_reports_cold_count(self, topology, request_84):
        service = PlanningService(topology, max_program_size=3)
        assert service.warm([request_84]) == 1
        assert service.warm([request_84]) == 0

    def test_disk_warm_start_across_services(self, topology, request_84, tmp_path):
        first = PlanningService(
            topology, max_program_size=3, cache=PlanCache(directory=tmp_path)
        )
        cold = first.submit(request_84)

        second = PlanningService(
            topology, max_program_size=3, cache=PlanCache(directory=tmp_path)
        )
        warm = second.submit(request_84)
        assert warm.stats.cache_tier == "disk"
        assert _ranking(warm.plan) == _ranking(cold.plan)


class TestShardedPlanning:
    """Sharded search is the one parallel path; it must agree with serial."""

    def test_sharded_ranking_identical_to_serial(self, topology, request_84):
        query = request_84.to_query(max_program_size=3)
        p2 = P2(topology, max_program_size=3)
        serial = p2.plan(query)
        sharded = p2.plan(dataclasses.replace(query, shards=2))
        assert sharded.search["shards"] == 2
        assert _ranking(sharded.plan) == _ranking(serial.plan)

    def test_sharded_service_matches_and_shares_the_serial_cache(
        self, topology, request_84
    ):
        query = request_84.to_query(max_program_size=3)
        serial = PlanningService(topology, max_program_size=3).plan(query)
        service = PlanningService(topology, max_program_size=3)
        sharded = service.plan(dataclasses.replace(query, shards=2))
        assert not sharded.cache_hit
        assert _ranking(sharded.plan) == _ranking(serial.plan)
        # shards is fingerprint-neutral: the serial query is served the
        # sharded plan from the cache.
        warm = service.plan(query)
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

    def test_simulate_many_preserves_input_order(self, topology, request_84):
        from repro.api import collect_strategy_entries, evaluate_entries_serial
        from repro.cost.model import CostModel
        from repro.cost.nccl import NCCLAlgorithm
        from repro.cost.simulator import ProgramSimulator
        from repro.synthesis.pipeline import synthesize_all

        candidates = synthesize_all(
            topology.hierarchy, request_84.axes, request_84.request, max_program_size=3
        )
        entries = [
            entry
            for entry in collect_strategy_entries(candidates, request_84.request)
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

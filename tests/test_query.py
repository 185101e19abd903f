"""Tests for the PlanQuery/PlanOutcome object model (repro.query)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.api import P2, OptimizationPlan
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.errors import EvaluationError, HierarchyError, QueryError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import Planner, PlanQuery
from repro.service import PlanningService
from repro.service.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_plan_query,
    plan_query_fingerprint,
)
from repro.synthesis.lowering import LoweredStep, StepTable
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
    return PlanQuery(
        axes=ParallelismAxes.of(8, 4),
        request=ReductionRequest.over(0),
        bytes_per_device=64 * MB,
        max_program_size=3,
    )


@pytest.fixture(scope="module")
def outcome_84(topology, query_84):
    return P2(topology).plan(query_84)


class TestPlanQueryRoundTrip:
    QUERIES = [
        PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 64 * MB),
        PlanQuery(
            ParallelismAxes.of(2, 16, names=("dp", "tp")),
            ReductionRequest.over(1),
            1 * MB,
            algorithm=NCCLAlgorithm.TREE,
        ),
        PlanQuery(
            ParallelismAxes.of(32),
            ReductionRequest.over(0),
            7,
            max_matrices=3,
            max_program_size=2,
        ),
        PlanQuery(
            ParallelismAxes.of(4, 4, 2),
            ReductionRequest.over(0, 2),
            1 << 28,
            max_matrices=None,
            max_program_size=5,
        ),
    ]

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.describe())
    def test_dict_roundtrip_is_lossless(self, query):
        assert PlanQuery.from_dict(query.to_dict()) == query

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.describe())
    def test_json_roundtrip_is_lossless(self, query):
        assert PlanQuery.from_json(query.to_json()) == query
        # and the encoding is plain, strict JSON
        assert json.loads(query.to_json()) == query.to_dict()

    def test_to_dict_key_order_is_stable(self, query_84):
        assert list(query_84.to_dict().keys()) == [
            "axes",
            "request",
            "bytes_per_device",
            "algorithm",
            "max_matrices",
            "max_program_size",
            "max_candidates",
            "time_budget_s",
        ]

    def test_from_dict_accepts_legacy_file_shape(self):
        legacy = {"axes": [8, 4], "reduce": [0], "bytes": 64 * MB, "algorithm": "tree"}
        query = PlanQuery.from_dict(legacy, max_program_size=3)
        assert query == PlanQuery(
            ParallelismAxes.of(8, 4),
            ReductionRequest.over(0),
            64 * MB,
            algorithm=NCCLAlgorithm.TREE,
            max_program_size=3,
        )

    def test_from_dict_defaults_only_fill_missing_keys(self):
        data = PlanQuery(
            ParallelismAxes.of(4, 4), ReductionRequest.over(0), 5 * MB, max_matrices=2
        ).to_dict()
        query = PlanQuery.from_dict(data, bytes_per_device=1, max_matrices=9)
        assert query.bytes_per_device == 5 * MB  # dict value wins
        assert query.max_matrices == 2  # explicit key wins over the default
        legacy = {"axes": [4, 4], "reduce": [0]}
        assert PlanQuery.from_dict(legacy, bytes_per_device=3 * MB).bytes_per_device == 3 * MB

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(QueryError):
            PlanQuery.from_dict({"reduce": [0]})  # no axes
        with pytest.raises(QueryError):
            PlanQuery.from_dict({"axes": [8, 4]})  # no request/reduce
        with pytest.raises(QueryError):
            PlanQuery.from_dict({"axes": [8, 4], "reduce": [0]})  # no payload anywhere
        with pytest.raises(QueryError):
            PlanQuery.from_dict([1, 2, 3])  # not an object

    def test_from_spec_parses_legacy_cli_strings(self):
        query = PlanQuery.from_spec("2,16:1:1048576:tree", max_program_size=3)
        assert query == PlanQuery(
            ParallelismAxes.of(2, 16),
            ReductionRequest.over(1),
            1 << 20,
            algorithm=NCCLAlgorithm.TREE,
            max_program_size=3,
        )
        defaulted = PlanQuery.from_spec("8,4:0", bytes_per_device=64 * MB)
        assert defaulted.bytes_per_device == 64 * MB
        assert defaulted.algorithm == NCCLAlgorithm.RING

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(QueryError):
            PlanQuery.from_spec("oops")
        with pytest.raises(QueryError):
            PlanQuery.from_spec("8x4:0:123")
        with pytest.raises(QueryError):
            PlanQuery.from_spec("8,4:0:123:nccl")
        with pytest.raises(QueryError):
            PlanQuery.from_spec("8,4:0")  # no payload and no default


class TestPlanQueryValidation:
    def test_coerces_loose_inputs_to_one_canonical_form(self):
        loose = PlanQuery((8, 4), (0,), 1 * MB, algorithm="ring")
        strict = PlanQuery(
            ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1 * MB,
            algorithm=NCCLAlgorithm.RING,
        )
        assert loose == strict

    def test_rejects_bad_payload(self):
        with pytest.raises(QueryError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 0)
        # QueryError is an EvaluationError, so pre-redesign handlers still fire.
        with pytest.raises(EvaluationError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), -1)

    def test_rejects_non_integral_payload(self):
        with pytest.raises(QueryError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 100.9)
        with pytest.raises(QueryError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), True)
        # an integral float (as JSON parsers may produce) is accepted exactly
        query = PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1048576.0)
        assert query.bytes_per_device == 1 << 20

    def test_rejects_bad_algorithm(self):
        with pytest.raises(QueryError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1, algorithm="nccl")

    def test_rejects_bad_limits(self):
        with pytest.raises(QueryError):
            PlanQuery(
                ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1, max_program_size=0
            )
        with pytest.raises(QueryError):
            PlanQuery(
                ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1, max_matrices=0
            )

    def test_rejects_out_of_range_reduction_axis(self):
        with pytest.raises(HierarchyError):
            PlanQuery(ParallelismAxes.of(8, 4), ReductionRequest.over(2), 1 * MB)


class TestGoldenFingerprint:
    """Pin the v3 canonical form: changing it must force a version bump."""

    def test_version_is_3(self):
        assert FINGERPRINT_VERSION == 3

    def test_canonical_form_golden(self, topology, query_84):
        canonical = canonical_plan_query(topology, query_84, CostModel())
        assert sorted(canonical.keys()) == [
            "cost_model",
            "fingerprint_version",
            "query",
            "topology",
        ]
        assert canonical["fingerprint_version"] == 3
        assert canonical["query"] == {
            "axes": {"sizes": [8, 4], "names": ["data", "model"]},
            "request": {"axes": [0]},
            "bytes_per_device": 67108864,
            "algorithm": "ring",
            "max_matrices": None,
            "max_program_size": 3,
            "max_candidates": None,
            "time_budget_s": None,
        }

    def test_fingerprint_is_sha256_of_compact_encoding(self, topology, query_84):
        canonical = canonical_plan_query(topology, query_84, CostModel())
        encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert (
            plan_query_fingerprint(topology, query_84, CostModel())
            == hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        )


class TestPlannerProtocol:
    def test_p2_and_service_satisfy_the_protocol(self, topology):
        assert isinstance(P2(topology), Planner)
        assert isinstance(PlanningService(topology), Planner)

    def test_p2_and_service_rankings_are_identical(self, topology, query_84, outcome_84):
        served = PlanningService(topology).plan(query_84)
        assert _ranking(served.plan) == _ranking(outcome_84.plan)
        assert [s.program.signature() for s in served.plan.strategies] == [
            s.program.signature() for s in outcome_84.plan.strategies
        ]
        assert served.fingerprint == outcome_84.fingerprint

    def test_outcome_carries_provenance(self, topology, query_84, outcome_84):
        assert outcome_84.cache_tier is None and not outcome_84.cache_hit
        assert outcome_84.synthesis_seconds > 0
        assert outcome_84.evaluation_seconds > 0
        assert outcome_84.total_seconds >= outcome_84.synthesis_seconds
        assert len(outcome_84.fingerprint) == 64
        assert "[cold]" in outcome_84.describe()

        service = PlanningService(topology)
        service.plan(query_84)
        warm = service.plan(query_84)
        assert warm.cache_tier == "memory" and warm.cache_hit
        assert "[memory]" in warm.describe()

    def test_service_honours_query_search_limits(self, topology):
        service = PlanningService(topology)
        limited = service.plan(
            PlanQuery(
                ParallelismAxes.of(8, 4),
                ReductionRequest.over(0),
                32 * MB,
                max_matrices=1,
                max_program_size=3,
            )
        )
        assert limited.num_candidates == 1

    def test_plan_many_preserves_order_and_dedupes(self, topology, query_84):
        other = PlanQuery(
            ParallelismAxes.of(8, 4), ReductionRequest.over(1), 64 * MB,
            max_program_size=3,
        )
        service = PlanningService(topology)
        outcomes = service.plan_many([query_84, other, query_84])
        assert [o.query for o in outcomes] == [query_84, other, query_84]
        assert [o.cache_tier for o in outcomes] == [None, None, "memory"]

    def test_plan_many_records_shards_in_provenance(self, topology, query_84):
        outcomes = P2(topology).plan_many(
            [replace(query_84, shards=2)]
        )
        assert outcomes[0].search["shards"] == 2
        encoded = outcomes[0].to_dict()
        assert encoded["search"]["shards"] == 2
        assert "_".join(("n", "workers")) not in encoded

    def test_p2_plan_many(self, topology, query_84, outcome_84):
        outcomes = P2(topology).plan_many([query_84, query_84])
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert _ranking(outcome.plan) == _ranking(outcome_84.plan)

    def test_outcome_to_dict_is_json_safe(self, outcome_84):
        encoded = json.dumps(outcome_84.to_dict(), sort_keys=True)
        decoded = json.loads(encoded)
        assert decoded["query"] == outcome_84.query.to_dict()
        assert decoded["cache_hit"] is False
        assert decoded["num_strategies"] == len(outcome_84.plan.strategies)
        restored = OptimizationPlan.from_dict(decoded["plan"])
        assert _ranking(restored) == _ranking(outcome_84.plan)


class TestPlanJsonRoundTrip:
    def test_ranking_and_speedup_survive_json(self, outcome_84):
        plan = outcome_84.plan
        restored = OptimizationPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert _ranking(restored) == _ranking(plan)
        assert restored.speedup_over_default() == plan.speedup_over_default()
        assert restored.bytes_per_device == plan.bytes_per_device

    def test_restored_strategies_record_their_payload(self, outcome_84):
        plan = outcome_84.plan
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert all(
            s.bytes_per_device == plan.bytes_per_device for s in restored.strategies
        )

    def test_standalone_strategy_roundtrip_is_self_describing(self, outcome_84):
        from repro.api import RankedStrategy

        strategy = outcome_84.plan.default_all_reduce()
        table = StepTable()
        data = strategy.to_dict(table)
        steps = tuple(LoweredStep.from_dict(step) for step in table.to_dict())
        restored = RankedStrategy.from_dict(data, strategy.candidate, steps)
        assert restored.bytes_per_device == strategy.bytes_per_device
        assert restored.program.signature() == strategy.program.signature()

    def test_strategy_from_dict_does_not_mutate_the_candidate(self, outcome_84):
        from repro.api import RankedStrategy

        strategy = outcome_84.plan.default_all_reduce()
        table = StepTable()
        data = strategy.to_dict(table)
        before = len(strategy.candidate.programs)
        RankedStrategy.from_dict(data, strategy.candidate, table.steps)
        RankedStrategy.from_dict(data, strategy.candidate, table.steps)
        assert len(strategy.candidate.programs) == before

    def test_strategies_share_one_step_table(self, outcome_84):
        plan = outcome_84.plan
        table = StepTable()
        programs = [s.to_dict(table)["program"] for s in plan.strategies]
        computed = {id(step) for s in plan.strategies for step in s.program.steps}
        assert len(table.steps) == len(computed)
        assert sum(len(p["steps"]) for p in programs) > len(table.steps)
        assert plan.to_dict()["steps"] == table.to_dict()

    def test_outcome_json_plan_rebuilds_each_step_once(self, outcome_84):
        decoded = json.loads(json.dumps(outcome_84.to_dict()))
        table = decoded["plan"]["steps"]
        restored = OptimizationPlan.from_dict(decoded["plan"])
        built = {id(step) for s in restored.strategies for step in s.program.steps}
        computed = {id(step) for s in outcome_84.plan.strategies for step in s.program.steps}
        assert len(built) == len(table) == len(computed)
        assert [s.program.signature() for s in restored.strategies] == [
            s.program.signature() for s in outcome_84.plan.strategies
        ]
        assert restored.to_dict() == decoded["plan"]

    def test_double_plan_roundtrip_does_not_accumulate_programs(self, outcome_84):
        once = OptimizationPlan.from_dict(outcome_84.plan.to_dict())
        twice = OptimizationPlan.from_dict(once.to_dict())
        assert [len(c.programs) for c in twice.candidates] == [
            len(c.programs) for c in once.candidates
        ]


class TestRetiredLooseArgumentApi:
    """The pre-PlanQuery signatures are gone; a query is the only input."""

    def test_p2_has_no_optimize(self, topology):
        assert not hasattr(P2(topology), "optimize")

    def test_p2_plan_takes_no_service(self, topology, query_84):
        with pytest.raises(TypeError):
            P2(topology).plan(query_84, service=PlanningService(topology))

    def test_query_limits_reach_p2(self, topology):
        outcome = P2(topology).plan(
            PlanQuery(
                axes=ParallelismAxes.of(8, 4),
                request=ReductionRequest.over(0),
                bytes_per_device=32 * MB,
                algorithm=NCCLAlgorithm.RING,
                max_matrices=1,
                max_program_size=3,
            )
        )
        assert len(outcome.plan.candidates) == 1

    def test_invalid_payload_raises_evaluation_error(self):
        with pytest.raises(EvaluationError):
            PlanQuery(ParallelismAxes.of(32), ReductionRequest.over(0), 0)


class TestSimulatePayloadProvenance:
    """Nothing invents a magic 1 MiB payload: strategies carry the query's."""

    def test_strategies_record_the_query_payload(self, query_84, outcome_84):
        assert all(
            s.bytes_per_device == query_84.bytes_per_device
            for s in outcome_84.plan.strategies
        )

    def test_the_recorded_payload_reprices_the_prediction(self, topology, outcome_84):
        strategy = outcome_84.plan.default_all_reduce()
        repriced = ProgramSimulator(topology).simulate(
            strategy.program, strategy.bytes_per_device
        )
        assert repriced.total_seconds == strategy.predicted_seconds
        # and the recorded payload is the query's, not 1 MiB
        assert strategy.bytes_per_device == 64 * MB

    def test_simulate_without_any_payload_is_an_error(self, topology, outcome_84):
        # The simulator has no default payload to fall back on.
        with pytest.raises(TypeError):
            ProgramSimulator(topology).simulate(outcome_84.plan.default_all_reduce().program)


class TestPlanPlacementsIntegration:
    @pytest.mark.parametrize("algorithm", [NCCLAlgorithm.RING, NCCLAlgorithm.TREE])
    def test_every_choice_is_priced_exactly_by_the_reference(self, topology, algorithm):
        from repro.baselines.allreduce import default_all_reduce
        from repro.hierarchy.placement import DevicePlacement
        from repro.planner import WeightedReduction, plan_placements

        reductions = [
            WeightedReduction("gradients", ReductionRequest.over(0), 32 * MB),
            WeightedReduction("activations", ReductionRequest.over(1), 8 * MB, weight=4),
            # Shares the gradients' request: one shape, a second payload.
            WeightedReduction("small", ReductionRequest.over(0), 64 * 1024, weight=2),
        ]
        plan = plan_placements(P2(topology), ParallelismAxes.of(2, 16), reductions, algorithm)
        oracle = ProgramSimulator(topology)
        assert len(plan.placements) > 1
        for evaluation in plan.placements:
            placement = DevicePlacement(evaluation.matrix)
            assert [c.reduction for c in evaluation.choices] == reductions
            for choice in evaluation.choices:
                payload = choice.reduction.bytes_per_device
                chosen = oracle.simulate_reference(choice.program, payload, algorithm)
                default = oracle.simulate_reference(
                    default_all_reduce(placement, choice.reduction.request),
                    payload,
                    algorithm,
                )
                assert choice.seconds == chosen.total_seconds
                assert choice.all_reduce_seconds == default.total_seconds

    def test_a_long_lived_service_answers_a_repeat_from_its_cache(self, topology):
        from repro.planner import WeightedReduction, plan_placements

        reductions = [
            WeightedReduction("gradients", ReductionRequest.over(0), 32 * MB),
            WeightedReduction("activations", ReductionRequest.over(1), 8 * MB),
        ]
        service = PlanningService(topology)
        first = plan_placements(service, ParallelismAxes.of(8, 4), reductions)
        assert service.cache.stats.hits == 0
        again = plan_placements(service, ParallelismAxes.of(8, 4), reductions)
        assert service.cache.stats.hits == len(reductions)
        assert again.describe() == first.describe()

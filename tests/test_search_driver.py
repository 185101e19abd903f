"""Tests for the streaming search driver (repro.search.driver / bounds).

The two load-bearing guarantees:

* **Exhaustive equivalence** — without a search budget the streaming driver
  reproduces the historical materialize-then-evaluate spine bit for bit
  (same entries, same floats, same profile-cache traffic).
* **Lossless pruning** — with bounds enabled (any search budget) the best
  strategy is bit-identical (cost *and* program signature) to the
  exhaustive plan, across shapes, payloads and both NCCL algorithms,
  because every lower bound is admissible: it never exceeds the exact
  predicted time it bounds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import P2, compute_plan
from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.baselines.hierarchical import reduce_allreduce_broadcast
from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.errors import SynthesisError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.query import PlanQuery
from repro.search import (
    BASELINE_ALL_REDUCE,
    BASELINE_BLUECONNECT,
    BASELINE_HIERARCHICAL,
    min_link_latency,
    placement_lower_bound,
    program_lower_bound,
)
from repro.cost.nccl import NCCLAlgorithm
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.pipeline import enumerate_search_matrices, synthesize_all
from repro.synthesis.pruning import SearchStatistics
from repro.topology.gcp import a100_system, v100_system

MB = 1 << 20

# The lossless property is checked over a grid of shapes x payloads x
# algorithms: small symmetric topologies where the exhaustive answer is
# cheap to compute, including a singleton-reduction shape (zero-cost best).
SHAPES = [
    ((8, 4), (0,)),
    ((4, 8), (1,)),
    ((32,), (0,)),
    ((2, 16), (0,)),
]
PAYLOADS = [64 * 1024, 1 * MB, 64 * MB]
ALGORITHMS = [NCCLAlgorithm.RING, NCCLAlgorithm.TREE]


@pytest.fixture(scope="module")
def topology():
    return a100_system(num_nodes=2)


def _query(shape, reduce_axes, payload, algorithm, **kwargs):
    return PlanQuery(
        axes=ParallelismAxes(shape),
        request=ReductionRequest(reduce_axes),
        bytes_per_device=payload,
        algorithm=algorithm,
        max_program_size=3,
        **kwargs,
    )


def _ranking(plan):
    return [
        (s.matrix.entries, s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


class TestLosslessPruning:
    @pytest.mark.parametrize("shape,reduce_axes", SHAPES)
    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bounded_search_returns_bit_identical_best(
        self, topology, shape, reduce_axes, payload, algorithm
    ):
        exhaustive = P2(topology).plan(
            _query(shape, reduce_axes, payload, algorithm)
        )
        pruned = P2(topology).plan(
            # A non-binding candidate budget turns bounds-based pruning on
            # without truncating enumeration: any difference from the
            # exhaustive best is a pruning (soundness) bug.
            _query(shape, reduce_axes, payload, algorithm, max_candidates=10**9)
        )
        assert pruned.search["budgeted"] and not pruned.search["budget_stopped"]
        assert pruned.best.predicted_seconds == exhaustive.best.predicted_seconds
        assert (
            pruned.best.program.signature() == exhaustive.best.program.signature()
        )
        assert pruned.best.matrix == exhaustive.best.matrix
        # Survivors keep the exhaustive ranking's relative order and floats.
        exhaustive_ranking = _ranking(exhaustive.plan)
        assert all(row in exhaustive_ranking for row in _ranking(pruned.plan))

    def test_zero_cost_best_prunes_everything_else(self, topology):
        # Reducing over a singleton axis needs no communication: the free
        # plan is found first and every communicating candidate and
        # placement is bound-rejected.
        query = PlanQuery(
            axes=ParallelismAxes((32, 1)),
            request=ReductionRequest((1,)),
            bytes_per_device=1 * MB,
            max_program_size=3,
            max_candidates=10**9,
        )
        outcome = P2(topology).plan(query)
        assert outcome.best.predicted_seconds == 0.0
        assert outcome.plan.speedup_over_default() == 1.0


class TestExhaustiveEquivalence:
    def test_streaming_spine_matches_legacy_eager_pipeline(self, topology):
        """The refactor contract: same entries, same floats, same counters."""
        from repro.api import (
            collect_strategy_entries,
            evaluate_entries_serial,
            rank_entries,
        )

        query = _query((8, 4), (0,), 64 * MB, NCCLAlgorithm.RING)
        candidates = synthesize_all(
            topology.hierarchy, query.axes, query.request, max_program_size=3
        )
        entries = collect_strategy_entries(candidates, query.request)
        legacy_simulator = ProgramSimulator(topology, CostModel())
        predicted = evaluate_entries_serial(
            entries,
            topology,
            CostModel(),
            query.bytes_per_device,
            query.algorithm,
            legacy_simulator,
        )
        legacy = rank_entries(entries, predicted, bytes_per_device=query.bytes_per_device)

        outcome = P2(topology).plan(query)
        assert [
            (s.matrix.entries, s.mnemonic, s.predicted_seconds) for s in legacy
        ] == [
            (s.matrix.entries, s.mnemonic, s.predicted_seconds)
            for s in outcome.plan.strategies
        ]
        # Per-query profile compilations match the legacy dedup accounting
        # (baseline programs share the synthesized signatures or add their
        # own, but within one query every signature compiles exactly once).
        assert outcome.profile_hits == 0
        assert outcome.profile_misses >= legacy_simulator.profile_misses

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batched_serial_path_matches_scalar_and_reference_oracles(
        self, topology, algorithm
    ):
        """Every float of a plan priced by the one vectorized kernel — each
        ranked strategy's time and each baseline's best-placement time — is
        exactly the scalar profile price and the per-group reference
        simulation of its program at the query's payload."""
        query = _query((8, 4), (0,), 16 * MB, algorithm)
        outcome = P2(topology).plan(query)
        assert outcome.search["batch_prices"] > 0
        oracle = ProgramSimulator(topology, CostModel())
        payload = query.bytes_per_device

        def oracle_seconds(program):
            scalar = oracle.simulate(program, payload, algorithm).total_seconds
            reference = oracle.simulate_reference(program, payload, algorithm)
            assert scalar == reference.total_seconds
            return scalar

        for strategy in outcome.plan.strategies:
            assert strategy.predicted_seconds == oracle_seconds(strategy.program)

        expected = {}
        for matrix in enumerate_search_matrices(
            topology.hierarchy, query.axes, query.request
        ):
            placement = DevicePlacement(matrix)
            hierarchy = build_synthesis_hierarchy(matrix, query.request)
            programs = {BASELINE_ALL_REDUCE: default_all_reduce(placement, query.request)}
            try:
                programs[BASELINE_HIERARCHICAL] = reduce_allreduce_broadcast(
                    hierarchy, placement
                )
                programs[BASELINE_BLUECONNECT] = blueconnect(hierarchy, placement)
            except SynthesisError:
                pass  # no local/global split: only the flat AllReduce
            for tag, program in programs.items():
                seconds = oracle_seconds(program)
                if tag not in expected or seconds < expected[tag]:
                    expected[tag] = seconds
        assert len(expected) == 3
        assert outcome.plan.baselines == expected

    def test_search_provenance_has_no_fallback_count(self, topology):
        outcome = P2(topology).plan(_query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING))
        assert outcome.search["batch_prices"] == 1
        assert "batch_fallbacks" not in outcome.search
        assert "batch_fallbacks" not in outcome.to_dict()["search"]


class TestBudgets:
    def test_max_candidates_truncates_enumeration(self, topology):
        query = _query((8, 4), (0,), 16 * MB, NCCLAlgorithm.RING, max_candidates=3)
        outcome = P2(topology).plan(query)
        assert outcome.search["budget_stopped"]
        assert outcome.search["considered"] == 3
        assert outcome.num_strategies <= 3
        # The plan still ranks and still holds a default AllReduce.
        assert outcome.plan.default_all_reduce() is not None
        assert outcome.best.predicted_seconds == min(
            s.predicted_seconds for s in outcome.plan.strategies
        )

    def test_time_budget_always_considers_one_entry(self, topology):
        query = _query(
            (8, 4), (0,), 16 * MB, NCCLAlgorithm.RING, time_budget_s=1e-9
        )
        outcome = P2(topology).plan(query)
        assert outcome.search["time_stopped"]
        assert outcome.num_strategies >= 1
        outcome.to_dict()  # still serializable end to end

    def test_budget_validation(self):
        from repro.errors import QueryError

        for bad in ({"max_candidates": 0}, {"time_budget_s": 0},
                    {"time_budget_s": float("nan")}, {"time_budget_s": float("inf")}):
            with pytest.raises(QueryError):
                PlanQuery(
                    ParallelismAxes.of(8, 4), ReductionRequest.over(0), 1 * MB, **bad
                )

    def test_budgeted_plans_are_never_cached(self, topology):
        from repro.service import PlanningService

        service = PlanningService(topology)
        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING, max_candidates=4)
        assert not service.plan(query).cache_hit
        # A budgeted plan is not a deterministic function of its
        # fingerprint, so a repeat is recomputed rather than served.
        assert not service.plan(query).cache_hit
        unbudgeted = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        assert not service.plan(unbudgeted).cache_hit
        assert service.plan(unbudgeted).cache_hit

    def test_budget_round_trips_and_fingerprints(self, topology):
        from repro.service.fingerprint import plan_query_fingerprint

        base = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        budgeted = dataclasses.replace(base, max_candidates=7, time_budget_s=2.5)
        assert PlanQuery.from_dict(budgeted.to_dict()) == budgeted
        assert plan_query_fingerprint(
            topology, base, CostModel()
        ) != plan_query_fingerprint(topology, budgeted, CostModel())


class TestDriverIntrospection:
    def test_best_per_matrix_tracks_incumbents(self, topology):
        from repro.search import SearchDriver, SearchSpace

        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        driver = SearchDriver(topology, CostModel())
        result = driver.run(
            SearchSpace(topology=topology, cost_model=CostModel(), query=query)
        )
        best = result.best_per_matrix()
        assert set(best) == set(range(len(result.candidates)))
        for index, candidate in enumerate(result.candidates):
            expected = min(
                seconds
                for entry, seconds in zip(result.entries, result.predicted)
                if entry.candidate is candidate
            )
            assert best[index] == expected
        assert min(best.values()) == result.report.incumbent_seconds


class TestBoundsAdmissibility:
    """Every bound must sit at or below the exact predicted time it bounds."""

    @pytest.mark.parametrize("system", ["a100", "v100"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_profile_and_program_bounds_never_exceed_exact_price(
        self, system, algorithm
    ):
        topology = (a100_system if system == "a100" else v100_system)(num_nodes=2)
        shape = (topology.num_devices // 4, 4)
        candidates = synthesize_all(
            topology.hierarchy,
            ParallelismAxes(shape),
            ReductionRequest((0,)),
            max_program_size=3,
        )
        model = CostModel()
        simulator = ProgramSimulator(topology, model)
        for candidate in candidates:
            for program in candidate.programs:
                lowered = program.lowered
                if lowered.num_steps == 0:
                    continue
                profile = simulator.profile_for(lowered)
                for payload in PAYLOADS:
                    exact = simulator.simulate(
                        lowered, payload, algorithm
                    ).total_seconds
                    assert (
                        profile.lower_bound(payload, algorithm, model) <= exact
                    )
                    assert program_lower_bound(lowered, topology, model) <= exact

    def test_placement_bound_never_exceeds_any_program(self, topology):
        request = ReductionRequest((0,))
        model = CostModel()
        simulator = ProgramSimulator(topology, model)
        candidates = synthesize_all(
            topology.hierarchy, ParallelismAxes((8, 4)), request, max_program_size=3
        )
        for candidate in candidates:
            bound = placement_lower_bound(
                candidate.placement, request, topology, model
            )
            for program in candidate.programs:
                for payload in PAYLOADS:
                    for algorithm in ALGORITHMS:
                        exact = simulator.simulate(
                            program.lowered, payload, algorithm
                        ).total_seconds
                        assert bound <= exact

    def test_min_link_latency_covers_host_link(self, topology):
        assert min_link_latency(topology) <= min(
            link.latency for link in topology.interconnects
        )


class TestSearchStatisticsSurfacing:
    def test_merge_and_to_dict(self):
        first = SearchStatistics(nodes_expanded=3, per_size_counts={1: 1, 2: 2})
        second = SearchStatistics(
            nodes_expanded=4, hit_node_limit=True, per_size_counts={2: 1, 3: 5}
        )
        first.record_program(2)
        first.merge(second)
        assert first.nodes_expanded == 7
        assert first.hit_node_limit
        assert first.per_size_counts == {1: 1, 2: 4, 3: 5}
        encoded = first.to_dict()
        assert encoded["per_size_counts"] == {"1": 1, "2": 4, "3": 5}
        assert list(encoded["per_size_counts"]) == ["1", "2", "3"]

    def test_outcome_provenance_carries_search_and_synthesis_stats(self, topology):
        import json

        outcome = P2(topology).plan(
            _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        )
        provenance = outcome.provenance()
        assert provenance["search"]["considered"] == outcome.num_strategies
        assert provenance["synthesis_stats"]["programs_found"] > 0
        json.dumps(outcome.to_dict())  # strict JSON end to end

    def test_sweep_records_carry_search_provenance(self, tmp_path):
        from repro.analysis.serialization import iter_jsonl_records
        from repro.evaluation.runner import SweepRunner
        from repro.evaluation.scenarios import PRESETS

        scenarios = PRESETS["smoke"].scenarios()[:1]
        runner = SweepRunner(measure_programs=False)
        out = tmp_path / "sweep.jsonl"
        results = runner.run_stream(scenarios, out_path=out)
        assert results[0].search is not None
        assert results[0].synthesis_stats is not None
        record = next(iter_jsonl_records(out))
        assert record["provenance"]["search"]["considered"] > 0
        assert record["provenance"]["synthesis_stats"]["programs_found"] > 0
        assert set(record["baseline_speedups"]) >= {"all_reduce"}
        # ... and they survive the record round trip.
        from repro.analysis.serialization import result_from_record

        restored = result_from_record(record)
        assert restored.search == results[0].search
        assert restored.synthesis_stats == results[0].synthesis_stats
        assert restored.baseline_speedups == results[0].baseline_speedups


class TestShardedSearch:
    """The sharded driver's equivalence contract (repro.search.sharded)."""

    @pytest.mark.parametrize("shape,reduce_axes", SHAPES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exhaustive_sharded_is_bit_identical(
        self, topology, shape, reduce_axes, algorithm
    ):
        query = _query(shape, reduce_axes, 1 * MB, algorithm)
        serial = P2(topology).plan(query)
        sharded = P2(topology).plan(
            dataclasses.replace(query, shards=4)
        )
        assert _ranking(serial.plan) == _ranking(sharded.plan)
        assert serial.plan.baselines == sharded.plan.baselines
        assert serial.fingerprint == sharded.fingerprint

    @pytest.mark.parametrize("payload", PAYLOADS)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_exhaustive_sharded_across_payloads_and_widths(
        self, topology, payload, shards
    ):
        query = _query((8, 4), (0,), payload, NCCLAlgorithm.RING)
        serial = P2(topology).plan(query)
        sharded = P2(topology).plan(
            dataclasses.replace(query, shards=shards)
        )
        assert _ranking(serial.plan) == _ranking(sharded.plan)
        assert serial.plan.baselines == sharded.plan.baselines

    def test_budgeted_sharded_keeps_lossless_best(self, topology):
        query = _query(
            (8, 4), (0,), 16 * MB, NCCLAlgorithm.RING, max_candidates=10**9
        )
        serial = P2(topology).plan(query)
        sharded = P2(topology).plan(
            dataclasses.replace(query, shards=2)
        )
        assert sharded.best.predicted_seconds == serial.best.predicted_seconds
        assert sharded.best.program.signature() == serial.best.program.signature()
        assert sharded.plan.baselines == serial.plan.baselines
        assert sharded.search["budgeted"]

    def test_sharded_report_provenance(self, topology):
        import json

        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING, shards=2)
        outcome = P2(topology).plan(query)
        search = outcome.search
        assert search["shards"] == 2
        stats = search["shard_stats"]
        assert [entry["shard"] for entry in stats] == [0, 1]
        claimed = sorted(i for entry in stats for i in entry["matrices"])
        assert claimed == list(range(search["matrices_reached"]))
        json.dumps(outcome.to_dict())  # provenance stays strict-JSON

    def test_shards_are_fingerprint_neutral(self, topology):
        from repro.cost.model import CostModel
        from repro.service.fingerprint import plan_query_fingerprint

        base = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        sharded = dataclasses.replace(base, shards=4)
        assert base == sharded  # compare=False: shards don't change identity
        assert plan_query_fingerprint(
            topology, base, CostModel()
        ) == plan_query_fingerprint(topology, sharded, CostModel())
        assert "shards" not in base.to_dict()
        assert PlanQuery.from_dict({**base.to_dict(), "shards": 4}).shards == 4

    def test_shards_validation(self):
        from repro.errors import QueryError

        for bad in (0, -1, 1.5, True):
            with pytest.raises(QueryError):
                PlanQuery(
                    ParallelismAxes.of(8, 4),
                    ReductionRequest.over(0),
                    1 * MB,
                    shards=bad,
                )

    def test_sharding_is_the_only_parallel_knob(self, topology):
        # The retired process-pool knobs are not silently accepted anywhere.
        from repro.api import compute_plan
        from repro.search import SearchDriver

        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        with pytest.raises(TypeError):
            SearchDriver(topology, CostModel(), **{"evaluator": object()})
        with pytest.raises(TypeError):
            compute_plan(topology, CostModel(), query, **{"evaluator": object()})
        with pytest.raises(TypeError):
            P2(topology).plan(
                query, **{"_".join(("n", "workers")): 2}
            )

    def test_custom_sources_are_unshardable(self, topology):
        from repro.errors import SearchError
        from repro.search import SearchSpace
        from repro.search.sharded import ShardedSearchDriver

        class CustomSource:
            name = "custom"
            role = "search"

            def entries(self, space, watermark, report):
                return iter(())

        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        driver = ShardedSearchDriver(topology, CostModel(), shards=2)
        space = SearchSpace(topology=topology, cost_model=CostModel(), query=query)
        with pytest.raises(SearchError, match="cannot shard"):
            driver.run(space, sources=[CustomSource()])

    def test_single_matrix_falls_back_to_serial(self, topology):
        # One placement only: the sharded driver must not spawn workers, and
        # the report shows a serial (shards=1) search.
        query = _query((32,), (0,), 1 * MB, NCCLAlgorithm.RING, shards=4)
        outcome = P2(topology).plan(query)
        assert outcome.search["shards"] == 1
        assert "shard_stats" not in outcome.search

    def test_pinned_seed_prices_in_parent(self, topology):
        from repro.search import PinnedPlanSource, default_sources

        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        first = P2(topology).plan(query)
        sources = [PinnedPlanSource.from_plan(first.plan, top_k=1), *default_sources()]
        seeded = compute_plan(
            topology, CostModel(), dataclasses.replace(query, shards=2), sources=sources
        )
        search = seeded.search_dict()
        assert search["seeds"] == 1
        assert _ranking(seeded.plan) == _ranking(first.plan)
        # An exhaustive sharded run reaches the same incumbent through the
        # seed, so it is stamped as seeded and timestamped early.
        assert search["seeded_incumbent"] is True
        assert search["time_to_incumbent_s"] is not None
        assert search["time_to_incumbent_s"] >= 0.0

    def test_near_miss_seed_is_disqualified_wholesale(self, topology):
        # A seed whose plan answers a *different* reduction request must be
        # rejected as a unit — no strategy from it may leak into the search —
        # and the resulting plan must be bit-identical to an unseeded run.
        from repro.search import PinnedPlanSource, default_sources

        foreign = P2(topology).plan(
            _query((8, 4), (1,), 1 * MB, NCCLAlgorithm.RING)
        )
        query = _query((8, 4), (0,), 1 * MB, NCCLAlgorithm.RING)
        sources = [PinnedPlanSource.from_plan(foreign.plan, top_k=1), *default_sources()]
        seeded = compute_plan(topology, CostModel(), query, sources=sources)
        unseeded = P2(topology).plan(query)
        assert seeded.search_dict()["seeds"] == 0
        assert seeded.search_dict()["seeded_incumbent"] is False
        assert _ranking(seeded.plan) == _ranking(unseeded.plan)


class TestPlacementLedger:
    def test_home_slices_come_first(self):
        from repro.search.sharded import PlacementLedger

        ledger = PlacementLedger(6, 2)
        assert ledger.claim(0) == (0, False)
        assert ledger.claim(1) == (1, False)
        assert ledger.claim(0) == (2, False)
        assert ledger.claim(0) == (4, False)

    def test_exhausted_home_slice_steals(self):
        from repro.search.sharded import PlacementLedger

        ledger = PlacementLedger(5, 2)
        # Shard 0 drains its home slice {0, 2, 4}...
        assert [ledger.claim(0) for _ in range(3)] == [
            (0, False),
            (2, False),
            (4, False),
        ]
        # ...then steals shard 1's unclaimed work, flagged as stolen.
        assert ledger.claim(0) == (1, True)
        assert ledger.claim(0) == (3, True)
        assert ledger.claim(0) is None
        assert ledger.claim(1) is None
        assert ledger.claimed_count() == 5

    def test_every_matrix_claimed_exactly_once(self):
        from repro.search.sharded import PlacementLedger

        ledger = PlacementLedger(11, 3)
        claims = []
        while True:
            progressed = False
            for shard in range(3):
                claim = ledger.claim(shard)
                if claim is not None:
                    claims.append(claim[0])
                    progressed = True
            if not progressed:
                break
        assert sorted(claims) == list(range(11))


class TestSharedWatermark:
    def test_view_updates_propagate_globally(self):
        from repro.search.sharded import SharedWatermark

        shared = SharedWatermark(3)
        view0, view2 = shared.matrix_view(0), shared.matrix_view(2)
        assert view0.seconds == float("inf")
        assert view0.update(5.0)
        # The other matrix's view reads the *global* incumbent immediately.
        assert view2.seconds == 5.0
        assert not view2.update(7.0)  # worse globally...
        assert shared.matrix_seconds(2) == 7.0  # ...but its matrix slot kept it
        assert view2.update(1.0)
        assert view0.seconds == 1.0
        assert shared.seconds == 1.0
        assert shared.matrix_seconds(0) == 5.0

    def test_updates_cross_process_boundaries(self):
        import multiprocessing

        from repro.search.sharded import SharedWatermark

        shared = SharedWatermark(2)
        process = multiprocessing.Process(
            target=_lower_watermark_in_child, args=(shared,)
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        assert shared.seconds == 0.25
        assert shared.matrix_seconds(1) == 0.25


def _lower_watermark_in_child(shared):
    view = shared.matrix_view(1)
    if not view.update(0.25):
        raise SystemExit(1)

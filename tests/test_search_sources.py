"""Tests for the candidate-source layer (repro.search.source).

The contracts pinned here:

* ``SynthesisSource`` reproduces the eager
  ``collect_strategy_entries(synthesize_all(...))`` entry list exactly.
* ``BaselineSource`` entries price bit-identically to the standalone
  constructions in ``repro.baselines`` — baselines as planning candidates
  report the very same numbers the evaluation tables always used.
* ``PinnedPlanSource`` replays only in-space strategies and seeds the
  branch-and-bound incumbent.
* Custom source lists plug into ``compute_plan(sources=...)`` but are rejected
  when routed through a caching service.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import P2, compute_plan
from repro.baselines import blueconnect, default_all_reduce, reduce_allreduce_broadcast
from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.errors import SynthesisError
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.query import PlanOutcome, PlanQuery
from repro.search import (
    BASELINE_ALL_REDUCE,
    BASELINE_BLUECONNECT,
    BASELINE_HIERARCHICAL,
    BaselineSource,
    CandidateSource,
    PinnedPlanSource,
    SearchDriver,
    SearchReport,
    SearchSpace,
    SynthesisSource,
    Watermark,
    default_sources,
)
from repro.service import PlanningService
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.pipeline import synthesize_all
from repro.topology.gcp import a100_system

from oracles.pipeline import collect_strategy_entries

MB = 1 << 20


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


def _space(topology, query):
    return SearchSpace(topology=topology, cost_model=CostModel(), query=query)


def _pull_all(source, space):
    return list(source.entries(space, Watermark(), SearchReport()))


class TestSynthesisSource:
    def test_stream_matches_eager_entry_list(self, topology, query_84):
        stream = _pull_all(SynthesisSource(), _space(topology, query_84))
        candidates = synthesize_all(
            topology.hierarchy,
            query_84.axes,
            query_84.request,
            max_program_size=query_84.max_program_size,
        )
        eager = collect_strategy_entries(candidates, query_84.request)
        assert len(stream) == len(eager)
        for streamed, collected in zip(stream, eager):
            assert streamed.candidate.matrix == collected.candidate.matrix
            assert streamed.mnemonic == collected.mnemonic
            assert streamed.size == collected.size
            assert streamed.is_default_all_reduce == collected.is_default_all_reduce
            assert streamed.lowered.signature() == collected.lowered.signature()

    def test_finite_watermark_prunes_whole_placements(self, topology, query_84):
        source = SynthesisSource()
        space = _space(topology, query_84)
        report = SearchReport()
        # An incumbent below any communicating placement's bound (the launch
        # overhead alone exceeds it) prunes every placement before synthesis.
        entries = list(source.entries(space, Watermark(1e-12), report))
        assert entries == []
        assert report.placements_pruned == len(
            enumerate_parallelism_matrices(topology.hierarchy, query_84.axes)
        )


class TestBaselineSource:
    def test_prices_identical_to_standalone_constructions(self, topology, query_84):
        """The satellite contract: sourced baselines == repro.baselines, exactly."""
        simulator = ProgramSimulator(topology, CostModel())
        expected = {}
        for matrix in enumerate_parallelism_matrices(topology.hierarchy, query_84.axes):
            placement = DevicePlacement(matrix)
            hierarchy = build_synthesis_hierarchy(matrix, query_84.request)
            programs = {
                BASELINE_ALL_REDUCE: default_all_reduce(placement, query_84.request)
            }
            try:
                programs[BASELINE_HIERARCHICAL] = reduce_allreduce_broadcast(
                    hierarchy, placement
                )
                programs[BASELINE_BLUECONNECT] = blueconnect(hierarchy, placement)
            except SynthesisError:
                pass
            for name, program in programs.items():
                if program.num_steps == 0:
                    seconds = 0.0
                else:
                    seconds = simulator.simulate(
                        program, query_84.bytes_per_device, query_84.algorithm
                    ).total_seconds
                if name not in expected or seconds < expected[name]:
                    expected[name] = seconds

        outcome = P2(topology).plan(query_84)
        assert outcome.plan.baselines == expected  # exact floats, no approx

    def test_every_baseline_speedup_reported(self, topology, query_84):
        outcome = P2(topology).plan(query_84)
        assert set(outcome.baseline_speedups()) == {
            BASELINE_ALL_REDUCE,
            BASELINE_HIERARCHICAL,
            BASELINE_BLUECONNECT,
        }
        # The best strategy can never lose to a baseline that lives inside
        # the search space, and all_reduce always does.
        assert outcome.baseline_speedups()[BASELINE_ALL_REDUCE] >= 1.0

    def test_tags_and_roles(self, topology, query_84):
        source = BaselineSource()
        assert source.role == "baseline"
        entries = _pull_all(source, _space(topology, query_84))
        assert {entry.tag for entry in entries} == {
            BASELINE_ALL_REDUCE,
            BASELINE_HIERARCHICAL,
            BASELINE_BLUECONNECT,
        }

    def test_baselines_survive_plan_serialization(self, topology, query_84):
        from repro.api import OptimizationPlan

        plan = P2(topology).plan(query_84).plan
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert restored.baselines == plan.baselines
        assert BASELINE_BLUECONNECT in restored.baselines


class TestPinnedPlanSource:
    def test_replays_top_strategies_and_seeds_incumbent(self, topology, query_84):
        p2 = P2(topology)
        first = p2.plan(query_84)
        pinned = PinnedPlanSource.from_plan(first.plan, top_k=1)
        budgeted = dataclasses.replace(query_84, max_candidates=10**9)
        seeded = compute_plan(
            topology, CostModel(), budgeted, sources=[pinned, *default_sources()]
        )
        assert seeded.search_dict()["seeds"] == 1
        # Seeding never changes the answer, only how fast pruning bites.
        assert seeded.plan.best.predicted_seconds == first.best.predicted_seconds
        assert (
            seeded.plan.best.program.signature() == first.best.program.signature()
        )

    def test_foreign_reduction_seeds_are_dropped_wholesale(self, topology, query_84):
        # A plan for a *different* reduction would seed the incumbent with a
        # time the current search space cannot reach — lossy pruning.  The
        # source knows the pinned plan's request and disqualifies itself.
        p2 = P2(topology)
        other = dataclasses.replace(query_84, request=ReductionRequest.over(1))
        foreign_plan = p2.plan(other).plan
        pinned = PinnedPlanSource.from_plan(foreign_plan, top_k=3)
        assert _pull_all(pinned, _space(topology, query_84)) == []
        budgeted = dataclasses.replace(query_84, max_candidates=10**9)
        seeded = compute_plan(
            topology, CostModel(), budgeted, sources=[pinned, *default_sources()]
        )
        assert seeded.search_dict()["seeds"] == 0
        assert (
            seeded.plan.best.predicted_seconds
            == p2.plan(query_84).best.predicted_seconds
        )

    def test_out_of_space_strategies_are_skipped(self, topology, query_84):
        plan = P2(topology).plan(query_84).plan
        pinned = PinnedPlanSource.from_plan(plan, top_k=3)
        # A shrunk program-size limit pushes size-3 pinned strategies out of
        # the declared search space; only in-space ones may seed.
        smaller = dataclasses.replace(query_84, max_program_size=1)
        space = _space(topology, smaller)
        entries = _pull_all(pinned, space)
        assert all(entry.size <= 1 for entry in entries)

    def test_protocol_conformance(self):
        assert isinstance(PinnedPlanSource(), CandidateSource)
        assert isinstance(SynthesisSource(), CandidateSource)
        assert isinstance(BaselineSource(), CandidateSource)


class TestCustomSources:
    def test_synthesis_only_sources_drop_baselines(self, topology, query_84):
        computation = compute_plan(
            topology, CostModel(), query_84, sources=[SynthesisSource()]
        )
        assert computation.plan.baselines == {}
        outcome = PlanOutcome(query=query_84, plan=computation.plan)
        assert outcome.baseline_speedups() == {}
        assert computation.search_dict()["sources"] == ["synthesis"]

    @pytest.mark.parametrize("planner", [P2, PlanningService])
    def test_sources_cannot_ride_through_a_service(self, topology, query_84, planner):
        # A planner's cache keys queries by fingerprint, which does not cover
        # sources; custom sources go to compute_plan.
        with pytest.raises(TypeError):
            planner(topology).plan(query_84, sources=[SynthesisSource()])

    def test_driver_accepts_custom_source(self, topology, query_84):
        class OneEntrySource:
            name = "one"
            role = "search"

            def entries(self, space, watermark, report):
                source = SynthesisSource()
                yield next(source.entries(space, watermark, report))

        driver = SearchDriver(topology, CostModel())
        result = driver.run(_space(topology, query_84), sources=[OneEntrySource()])
        assert len(result.entries) == 1
        assert result.entries[0].is_default_all_reduce

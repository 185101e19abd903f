"""The shape memo: synthesize once per shape, price per payload.

A long-lived planner keeps, per query shape, the entries its sources yielded
on one complete exhaustive search; later payloads and algorithms of that shape
are priced from them.  Everything here compares such a planner with planners
that share nothing — a fresh service per query — on shapes beyond the paper's
(``tests/test_semantics_transitions.py``) and on generated ones.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_semantics_transitions import SHAPES, reachable_states, three_level_topology

import repro.cost.simulator as simulator_module
import repro.synthesis.pipeline as pipeline_module
from repro.api import P2, compute_plan
from repro.corpus import PlanCorpus
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.errors import SynthesisError
from repro.obs import Recorder
from repro.query import PlanQuery
from repro.search import (
    SHAPE_MEMO_SHAPES,
    BaselineSource,
    SearchReport,
    SearchSpace,
    ShapeMemo,
    SynthesisSource,
    Watermark,
)
from repro.semantics.state import StateContext
from repro.service.cache import PlanCache
from repro.service.engine import PlanningService
from repro.synthesis.lowering import LoweredProgram
from repro.synthesis.synthesizer import Synthesizer
from repro.topology.gcp import a100_system, figure2a_system, v100_system

MB = 1 << 20
LADDER = (1 * MB, 8 * MB, 64 * MB, 512 * MB)
ALGORITHMS = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE)

# ``search`` keys that are not a function of the query alone: a wall-clock
# reading, the compiles that reused a validation sweep (0 whenever the
# planner's profile cache already holds the signatures, memo or no memo), and
# the one field that says the entries were inherited.
NOT_COMPARED = ("time_to_incumbent_s", "semantics_reused", "reused_streams")


def queries_of(name):
    _, axes, reduce, size = SHAPES[name]
    return [
        PlanQuery(
            axes=axes, request=reduce, bytes_per_device=payload,
            algorithm=algorithm, max_program_size=size,
        )
        for payload in LADDER
        for algorithm in ALGORITHMS
    ]


def plan_dict(plan):
    """``to_dict()`` without its one wall-clock reading per candidate."""
    data = plan.to_dict()
    for candidate in data["candidates"]:
        del candidate["synthesis_seconds"]
    return data


def search_counts(outcome):
    return {k: v for k, v in outcome.search.items() if k not in NOT_COMPARED}


def fresh_plan(topology, query):
    return PlanningService(topology, cache=PlanCache(None)).plan(query)


def assert_same_answer(outcome, reference):
    assert plan_dict(outcome.plan) == plan_dict(reference.plan)
    assert search_counts(outcome) == search_counts(reference)
    assert outcome.synthesis_stats == reference.synthesis_stats
    assert outcome.fingerprint == reference.fingerprint


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    topology = SHAPES[request.param][0]()
    queries = queries_of(request.param)
    return topology, queries, [fresh_plan(topology, query) for query in queries]


class TestMemoizedPlansEqualFromScratchPlans:
    def test_long_lived_service(self, shape):
        topology, queries, references = shape
        service = PlanningService(topology, cache=PlanCache(None))
        for i, (query, reference) in enumerate(zip(queries, references)):
            outcome = service.plan(query)
            assert outcome.cache_tier is None
            assert outcome.search["reused_streams"] == (2 if i else 0)
            assert_same_answer(outcome, reference)
        assert len(service._shapes) == 1
        hits = 2 * (len(queries) - 1)
        assert f"search.shape_memo 1/32 ({hits} hits, 2 misses, 0 evicted)" in service.describe()

    def test_long_lived_p2(self, shape):
        topology, queries, references = shape
        tool = P2(topology)
        for i, (query, reference) in enumerate(zip(reversed(queries), reversed(references))):
            outcome = tool.plan(query)
            assert outcome.search["reused_streams"] == (2 if i else 0)
            assert_same_answer(outcome, reference)

    def test_a_fresh_service_never_inherits(self, shape):
        _, _, references = shape
        assert all(r.search["reused_streams"] == 0 for r in references)


class CallCounts:
    """How often one plan reaches the four stages the memo is there to skip."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(("synthesize", "lower", "validate", "compile"), 0)

        def counting(name, function):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Synthesizer, "synthesize", counting("synthesize", Synthesizer.synthesize)
        )
        monkeypatch.setattr(
            pipeline_module, "lower_synthesized",
            counting("lower", pipeline_module.lower_synthesized),
        )
        monkeypatch.setattr(
            LoweredProgram, "validates_against",
            counting("validate", LoweredProgram.validates_against),
        )
        monkeypatch.setattr(
            simulator_module, "compile_profile",
            counting("compile", simulator_module.compile_profile),
        )

    def take(self):
        taken, self.counts = self.counts, dict.fromkeys(self.counts, 0)
        return taken


class TestWhatAHitSkips:
    @pytest.mark.parametrize("name", ["paper-8x4-r0", "three-level-4x4-r1"])
    def test_first_request_works_as_before_and_later_ones_not_at_all(
        self, name, monkeypatch
    ):
        topology = SHAPES[name][0]()
        first, second, third = queries_of(name)[:3]
        calls = CallCounts(monkeypatch)
        # Today's work for one plan: a planner with no memo.
        compute_plan(topology, CostModel(), first)
        unmemoized = calls.take()
        assert min(unmemoized.values()) > 0
        assert unmemoized["lower"] == unmemoized["validate"] > unmemoized["synthesize"]

        service = PlanningService(topology, cache=PlanCache(None))
        service.plan(first)
        assert calls.take() == unmemoized
        for query in (second, third):
            outcome = service.plan(query)
            assert outcome.cache_tier is None and outcome.profile_misses == 0
            assert calls.take() == dict.fromkeys(unmemoized, 0)

    def test_work_counters_report_work_done_not_work_inherited(self):
        topology = a100_system(num_nodes=2)
        recorder = Recorder()
        service = PlanningService(topology, cache=PlanCache(None), recorder=recorder)
        first, second = queries_of("paper-8x4-r0")[:2]
        work = (
            "synthesis.contexts_expanded", "semantics.steps",
            "semantics.transitions", "profile.steps_compiled",
        )
        repeated = ("search.considered", "search.ranked", "search.baseline_entries")

        service.plan(first)
        counters = recorder.snapshot().counters
        after_first = {name: counters.get(name, 0) for name in work + repeated}
        assert min(after_first.values()) > 0
        assert counters.get("search.shape_memo.miss", 0) == 2
        assert counters.get("search.shape_memo.hit", 0) == 0

        service.plan(second)
        counters = recorder.snapshot().counters
        for name in work:
            assert counters.get(name, 0) == after_first[name]
        for name in repeated:
            assert counters.get(name, 0) == 2 * after_first[name]
        assert counters.get("search.shape_memo.hit", 0) == 2
        assert counters.get("search.shape_memo.miss", 0) == 2
        assert counters.get("search.shape_memo.evicted", 0) == 0
        assert recorder.snapshot().gauges["search.shape_memo.shapes"] == 1


class TestWhatBypassesTheMemo:
    TOPOLOGY = a100_system(num_nodes=2)
    QUERY = PlanQuery(
        axes=(8, 4), request=(0,), bytes_per_device=4 * MB, max_program_size=3
    )

    def primed(self):
        memo = ShapeMemo()
        outcome = self.plan(memo, self.QUERY)
        assert outcome.report.reused_streams == 0 and len(memo) == 1
        return memo

    def plan(self, memo, query):
        return compute_plan(self.TOPOLOGY, CostModel(), query, shapes=memo)

    def test_the_same_shape_hits(self):
        memo = self.primed()
        other = dataclasses.replace(
            self.QUERY, bytes_per_device=64 * MB, algorithm=NCCLAlgorithm.TREE
        )
        assert self.plan(memo, other).report.reused_streams == 2
        assert (memo.hits, memo.misses, len(memo)) == (2, 2, 1)

    @pytest.mark.parametrize(
        "change",
        [{"max_candidates": 40}, {"time_budget_s": 30.0}, {"shards": 2}],
        ids=["candidate-budget", "time-budget", "sharded"],
    )
    def test_budgeted_and_sharded_queries_neither_read_nor_write(self, change):
        memo = self.primed()
        outcome = self.plan(memo, dataclasses.replace(self.QUERY, **change))
        assert outcome.report.reused_streams == 0
        assert (memo.hits, memo.misses, len(memo)) == (0, 2, 1)
        empty = ShapeMemo()
        self.plan(empty, dataclasses.replace(self.QUERY, **change))
        assert (empty.hits, empty.misses, len(empty)) == (0, 0, 0)

    @pytest.mark.parametrize(
        "change", [{"max_matrices": 2}, {"max_program_size": 2}],
        ids=["max_matrices", "max_program_size"],
    )
    def test_a_different_limit_is_a_different_shape(self, change):
        memo = self.primed()
        outcome = self.plan(memo, dataclasses.replace(self.QUERY, **change))
        assert outcome.report.reused_streams == 0
        assert (memo.hits, len(memo)) == (0, 2)

    def test_a_restricted_source_and_a_finite_watermark_bypass(self):
        memo = self.primed()
        space = SearchSpace(
            topology=self.TOPOLOGY, cost_model=CostModel(), query=self.QUERY, shapes=memo
        )
        full = list(SynthesisSource().entries(space, Watermark(), SearchReport()))
        assert memo.hits == 1
        for source in (SynthesisSource(matrix_indices=[0]), BaselineSource(matrix_indices=[0])):
            report = SearchReport()
            part = list(source.entries(space, Watermark(), report))
            assert 0 < len(part) < len(full) and report.reused_streams == 0
        report = SearchReport()
        pruned = list(SynthesisSource().entries(space, Watermark(1e-9), report))
        assert pruned == [] and report.placements_pruned > 0 and report.reused_streams == 0
        assert (memo.hits, memo.misses, len(memo)) == (1, 2, 1)

    def test_an_abandoned_stream_stores_nothing(self):
        memo = ShapeMemo()
        space = SearchSpace(
            topology=self.TOPOLOGY, cost_model=CostModel(), query=self.QUERY, shapes=memo
        )
        for source in (BaselineSource(), SynthesisSource()):
            stream = source.entries(space, Watermark(), SearchReport())
            assert next(stream) is not None and next(stream) is not None
            stream.close()
        assert (memo.misses, len(memo)) == (2, 0)

    def test_a_failed_stream_stores_nothing(self, monkeypatch):
        memo = ShapeMemo()
        calls = []

        def fails_late(program, placement, request):
            calls.append(program)
            return len(calls) < 10

        with monkeypatch.context() as patch:
            patch.setattr(LoweredProgram, "validates_against", fails_late)
            with pytest.raises(SynthesisError, match="failed physical validation"):
                self.plan(memo, self.QUERY)
        # The baselines' stream had completed; the synthesis stream had not.
        space = SearchSpace(
            topology=self.TOPOLOGY, cost_model=CostModel(), query=self.QUERY, shapes=memo
        )
        shape = next(iter(memo._entries))
        assert memo.recall(shape, "baselines") and memo.recall(shape, "synthesis") is None
        outcome = self.plan(memo, self.QUERY)
        assert outcome.report.reused_streams == 1
        assert plan_dict(outcome.plan) == plan_dict(fresh_plan(self.TOPOLOGY, self.QUERY).plan)
        assert list(SynthesisSource().entries(space, Watermark(), SearchReport()))
        assert memo.recall(shape, "synthesis")


class TestBound:
    def test_the_33rd_shape_evicts_the_least_recently_used(self):
        memo = ShapeMemo()
        for i in range(SHAPE_MEMO_SHAPES):
            memo.remember(("shape", i), "synthesis", (i,))
        assert (len(memo), memo.evicted) == (SHAPE_MEMO_SHAPES, 0) and SHAPE_MEMO_SHAPES == 32
        assert memo.recall(("shape", 0), "synthesis") == (0,)  # now the most recent
        memo.remember(("shape", 32), "synthesis", (32,))
        assert (len(memo), memo.evicted) == (32, 1)
        assert memo.recall(("shape", 1), "synthesis") is None
        assert memo.recall(("shape", 0), "synthesis") == (0,)
        assert memo.recall(("shape", 32), "synthesis") == (32,)
        # A second stream of a held shape is not a new shape.
        memo.remember(("shape", 32), "baselines", ())
        assert (len(memo), memo.evicted) == (32, 1)
        assert memo.recall(("shape", 32), "baselines") == ()

    def test_a_service_evicts_and_recomputes(self, monkeypatch):
        monkeypatch.setattr("repro.search.source.SHAPE_MEMO_SHAPES", 2)
        topology = figure2a_system()
        recorder = Recorder()
        service = PlanningService(topology, cache=PlanCache(None), recorder=recorder)
        shapes = [
            PlanQuery(axes=axes, request=(0,), bytes_per_device=MB, max_program_size=2)
            for axes in [(4, 4), (2, 8), (8, 2)]
        ]
        for query in shapes:
            assert service.plan(query).search["reused_streams"] == 0
        assert len(service._shapes) == 2
        assert recorder.snapshot().counters.get("search.shape_memo.evicted", 0) == 1
        again = [dataclasses.replace(query, bytes_per_device=2 * MB) for query in shapes]
        assert service.plan(again[2]).search["reused_streams"] == 2
        evicted = service.plan(again[0])
        assert evicted.search["reused_streams"] == 0
        assert plan_dict(evicted.plan) == plan_dict(fresh_plan(topology, again[0]).plan)


class TestOwnership:
    QUERY = TestWhatBypassesTheMemo.QUERY

    def test_two_services_share_nothing(self):
        topology = a100_system(num_nodes=2)
        one = PlanningService(topology, cache=PlanCache(None))
        two = PlanningService(topology, cache=PlanCache(None))
        first = one.plan(self.QUERY)
        other = dataclasses.replace(self.QUERY, bytes_per_device=32 * MB)
        assert one.plan(other).search["reused_streams"] == 2
        second = two.plan(self.QUERY)
        assert second.search["reused_streams"] == 0
        assert one._shapes is not two._shapes and len(two._shapes) == 1

        def held(service):
            return {
                id(entry) for streams in service._shapes._entries.values()
                for entries in streams.values() for entry in entries
            }

        assert held(one) and not held(one) & held(two)
        assert plan_dict(first.plan) == plan_dict(second.plan)
        assert P2(topology)._shapes is not P2(topology)._shapes

    def test_the_memo_reaches_no_search_state(self):
        topology = a100_system(num_nodes=2)
        service = PlanningService(topology, cache=PlanCache(None))
        plan = service.plan(self.QUERY).plan
        allowed_states, allowed_contexts, placements = set(), set(), set()
        for streams in service._shapes._entries.values():
            for entries in streams.values():
                for entry in entries:
                    placements.add(id(entry.candidate.placement))
                    assert not entry.candidate.placement.hoare_transitions
                    for context in entry.candidate.placement.reduction_contexts(
                        self.QUERY.request
                    ):
                        allowed_contexts.add(id(context))
                        allowed_states.update(id(state) for state in context.states)
        # Baselines and synthesis each build their own placement per matrix.
        assert len(placements) == 2 * len(plan.candidates)
        states = reachable_states(service._shapes)
        assert states and all(id(state) in allowed_states for state in states)
        contexts = reachable_states(service._shapes, StateContext)
        assert contexts and all(id(context) in allowed_contexts for context in contexts)
        # ... and what it holds beyond the plan is the baselines' stream.
        plan_objects = {id(obj) for obj in reachable_states(plan, object)}
        synthesis = [
            streams["synthesis"] for streams in service._shapes._entries.values()
        ]
        assert all(
            id(entry.lowered) in plan_objects and id(entry.candidate) in plan_objects
            for entries in synthesis for entry in entries
        )


def assert_same_plan_and_counts(outcome, reference):
    """For paths whose pricing provenance (seeds) differs from a serial plan's."""
    assert plan_dict(outcome.plan) == plan_dict(reference.plan)
    assert outcome.synthesis_stats == reference.synthesis_stats
    for key in ("considered", "ranked", "baseline_entries", "matrices_reached"):
        assert outcome.search[key] == reference.search[key]


class TestOnePlannerTwoSpellings:
    """``P2`` and ``PlanningService`` are one implementation: a fresh or a
    long-lived instance of either answers every query identically."""

    def test_a_service_is_a_p2(self):
        assert isinstance(PlanningService(a100_system(num_nodes=2)), P2)

    def test_every_spelling_gives_the_same_answer(self, shape):
        topology, queries, references = shape
        long_lived = (P2(topology), PlanningService(topology, cache=PlanCache(None)))
        for query, reference in zip(queries, references):
            assert_same_answer(P2(topology).plan(query), reference)
            for planner in long_lived:
                assert_same_answer(planner.plan(query), reference)


class TestOtherPathsThroughComputePlan:
    QUERY = TestWhatBypassesTheMemo.QUERY

    def ladder(self):
        return [
            dataclasses.replace(self.QUERY, bytes_per_device=payload, algorithm=algorithm)
            for payload in LADDER[:3]
            for algorithm in ALGORITHMS
        ]

    def test_a_sharded_service_stays_bit_identical(self):
        topology = a100_system(num_nodes=2)
        service = PlanningService(topology, cache=PlanCache(None))
        for query in self.ladder():
            outcome = service.plan(dataclasses.replace(query, shards=2))
            assert outcome.search["shards"] == 2
            assert_same_plan_and_counts(outcome, fresh_plan(topology, query))

    def test_a_corpus_seeded_service_hits_and_stays_bit_identical(self, tmp_path):
        topology = a100_system(num_nodes=2)
        service = PlanningService(
            topology, cache=PlanCache(None), corpus=PlanCorpus(tmp_path / "corpus")
        )
        for i, query in enumerate(self.ladder()):
            outcome = service.plan(query)
            assert outcome.search["reused_streams"] == (2 if i else 0)
            # From the second rung on the nearest neighbours are replayed first.
            assert (outcome.search["seeds"] > 0) == (i > 0)
            assert_same_plan_and_counts(outcome, fresh_plan(topology, query))

    def test_equal_hierarchy_topologies_share_one_memo(self):
        # The memo is keyed on the hierarchy, not the topology: a topology with
        # the same hierarchy but other links reuses the entries and re-prices
        # them under its own links.
        memo = ShapeMemo()
        compute_plan(a100_system(num_nodes=2), CostModel(), self.QUERY, shapes=memo)
        other = v100_system(num_nodes=2, gpus_per_node=16)
        assert other.hierarchy == a100_system(num_nodes=2).hierarchy
        computation = compute_plan(other, CostModel(), self.QUERY, shapes=memo)
        assert computation.report.reused_streams == 2
        reference = fresh_plan(other, self.QUERY)
        assert plan_dict(computation.plan) == plan_dict(reference.plan)


# --------------------------------------------------------------------------- #
# ROADMAP item 4's link: memoized == from-scratch, on generated inputs
# --------------------------------------------------------------------------- #
SYSTEMS = {
    "a100x1": lambda: a100_system(num_nodes=1),
    "v100x2x6": lambda: v100_system(2, gpus_per_node=6),
    "a100x3x4": lambda: a100_system(3, gpus_per_node=4),
    "three-level": three_level_topology,
    "figure2a": figure2a_system,
}
_SERVICES = {}


def _factorizations(n, parts):
    if parts == 1:
        return [(n,)]
    return [
        (d,) + rest
        for d in range(1, n + 1) if n % d == 0
        for rest in _factorizations(n // d, parts - 1)
    ]


@st.composite
def shaped_queries(draw):
    """(system, two queries of one shape that differ in payload and/or algorithm)."""
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    devices = SYSTEMS[system]().num_devices
    axes = draw(
        st.sampled_from(
            [f for parts in (1, 2, 3) for f in _factorizations(devices, parts) if max(f) > 1]
        )
    )
    reduce = draw(
        st.lists(st.integers(0, len(axes) - 1), min_size=1, max_size=len(axes), unique=True)
    )
    size = draw(st.integers(1, 3))
    payloads = draw(st.tuples(*[st.sampled_from((1, 4096, MB, 64 * MB, 1 << 31))] * 2))
    algorithms = draw(st.tuples(*[st.sampled_from(ALGORITHMS)] * 2))
    return system, [
        PlanQuery(
            axes=axes, request=tuple(reduce), bytes_per_device=payload,
            algorithm=algorithm, max_program_size=size, max_matrices=6,
        )
        for payload, algorithm in zip(payloads, algorithms)
    ]


class TestGeneratedShapes:
    @given(shaped_queries())
    @settings(max_examples=30, deadline=None)
    def test_memoized_plan_equals_from_scratch_plan(self, drawn):
        system, (first, second) = drawn
        # One long-lived service per system across examples, so the memo also
        # sees many shapes come and go.
        if system not in _SERVICES:
            topology = SYSTEMS[system]()
            _SERVICES[system] = PlanningService(topology, cache=PlanCache(None)), topology
        service, topology = _SERVICES[system]
        service.plan(first)
        service.cache.clear()  # the two queries may be one and the same
        memoized = service.plan(second)
        assert memoized.cache_tier is None
        assert memoized.search["reused_streams"] == 2
        scratch = compute_plan(
            topology, CostModel(), second, simulator=ProgramSimulator(topology)
        )
        assert plan_dict(memoized.plan) == plan_dict(scratch.plan)
        assert memoized.synthesis_stats == scratch.statistics_dict()
        expected = scratch.search_dict()
        assert {k: memoized.search[k] for k in expected if k not in NOT_COMPARED} == {
            k: v for k, v in expected.items() if k not in NOT_COMPARED
        }
        assert all(math.isfinite(s.predicted_seconds) for s in memoized.plan.strategies)

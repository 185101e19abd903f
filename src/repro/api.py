"""High-level user-facing API.

:class:`P2` bundles the whole tool the paper describes: give it a machine
topology and a :class:`~repro.query.PlanQuery` (parallelism shape, reduction
request, payload size) and it returns every (placement, strategy) candidate
ranked by the simulator.  It is the package's only planner: the planning
service (:class:`repro.service.engine.PlanningService`) is a ``P2`` with a
plan cache.

Example
-------
>>> from repro.api import P2
>>> from repro.query import PlanQuery
>>> from repro.topology import a100_system
>>> p2 = P2(a100_system(num_nodes=2))
>>> plan = p2.plan(PlanQuery((8, 4), (0,), bytes_per_device=1 << 26)).plan
>>> best = plan.best
>>> best.predicted_seconds <= plan.default_all_reduce().predicted_seconds
True
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.allreduce import default_all_reduce
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.errors import EvaluationError, ReproError, ServiceError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.matrix import ParallelismMatrix
from repro.hierarchy.placement import DevicePlacement
from repro.obs.recorder import get_recorder
from repro.query import PlanOutcome, PlanQuery
from repro.search.driver import SearchDriver, SearchReport
from repro.search.source import CandidateSource, SearchSpace, ShapeMemo, StrategyEntry
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import LoweredProgram, LoweredStep, StepTable
from repro.synthesis.pipeline import PlacementCandidate, ProgramCandidate
from repro.synthesis.pruning import SearchStatistics
from repro.topology.topology import MachineTopology
from repro.utils.tabulate import format_table

__all__ = [
    "PLAN_FORMAT_VERSION",
    "RankedStrategy",
    "OptimizationPlan",
    "P2",
    "StrategyEntry",
    "PlanComputation",
    "rank_entries",
    "compute_plan",
]

# v4: a plan writes each distinct lowered step once, in a top-level "steps"
# table, and each program as indices into it.  Older envelopes inline every
# step in every program; they miss (and recompute), they are never converted.
# (v3 added the per-baseline reference times, v2 the DSL program "size".)
PLAN_FORMAT_VERSION = 4

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RankedStrategy:
    """One (parallelism matrix, lowered program) candidate with its predicted time.

    ``bytes_per_device`` records the payload of the originating query (the
    prediction is only meaningful for that payload); it is ``None`` only for
    strategies constructed outside the planning pipeline.
    """

    matrix: ParallelismMatrix
    program: LoweredProgram
    mnemonic: str
    predicted_seconds: float
    is_default_all_reduce: bool
    candidate: PlacementCandidate
    bytes_per_device: Optional[int] = None
    size: Optional[int] = None  # DSL program size (instruction count), not steps

    def describe(self) -> str:
        tag = " [default]" if self.is_default_all_reduce else ""
        return (
            f"{self.matrix.describe()} / {self.mnemonic}{tag}: "
            f"{self.predicted_seconds:.4f}s predicted"
        )

    def to_dict(self, steps: StepTable) -> Dict:
        """JSON-serializable form (matrix + program + prediction + payload).

        The program is written as indices into ``steps``, which gains the
        program's new steps; :meth:`OptimizationPlan.to_dict` writes the table.
        """
        return {
            "matrix": [list(row) for row in self.matrix.entries],
            "mnemonic": self.mnemonic,
            "predicted_seconds": self.predicted_seconds,
            "is_default_all_reduce": self.is_default_all_reduce,
            "bytes_per_device": self.bytes_per_device,
            "size": self.size,
            "program": steps.encode(self.program),
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict,
        candidate: PlacementCandidate,
        steps: Sequence[LoweredStep],
        bytes_per_device: Optional[int] = None,
    ) -> "RankedStrategy":
        """Rebuild a strategy from :meth:`to_dict` output and the rebuilt step
        table (``candidate`` is not mutated; it only supplies the placement
        context).

        ``bytes_per_device`` is a fallback for serialized forms predating the
        per-strategy payload field.
        """
        hierarchy = candidate.matrix.hierarchy
        program = LoweredProgram.from_table(data["program"], steps, hierarchy.num_devices)
        return cls(
            matrix=candidate.matrix,
            program=program,
            mnemonic=data["mnemonic"],
            predicted_seconds=data["predicted_seconds"],
            is_default_all_reduce=data["is_default_all_reduce"],
            candidate=candidate,
            bytes_per_device=data.get("bytes_per_device") or bytes_per_device,
            size=data.get("size"),
        )


@dataclass
class OptimizationPlan:
    """The ranked output of one :meth:`P2.plan` call.

    ``baselines`` maps each paper baseline priced by the search driver
    (``all_reduce`` / ``hierarchical`` / ``blueconnect``, see
    :class:`repro.search.BaselineSource`) to its predicted seconds at its
    best placement for this plan's payload.  Baselines are reference points,
    not ranked strategies; plans deserialized from pre-v3 envelopes carry an
    empty dict.
    """

    axes: ParallelismAxes
    request: ReductionRequest
    bytes_per_device: int
    algorithm: NCCLAlgorithm
    strategies: List[RankedStrategy]
    candidates: List[PlacementCandidate]
    baselines: Dict[str, float] = field(default_factory=dict)

    @property
    def best(self) -> RankedStrategy:
        if not self.strategies:
            raise EvaluationError("the plan contains no strategies")
        return self.strategies[0]

    def top(self, k: int) -> List[RankedStrategy]:
        return self.strategies[: max(k, 0)]

    def strategies_for_matrix(self, matrix: ParallelismMatrix) -> List[RankedStrategy]:
        return [s for s in self.strategies if s.matrix == matrix]

    def default_all_reduce(self, matrix: Optional[ParallelismMatrix] = None) -> RankedStrategy:
        """The default AllReduce strategy (for ``matrix``, or the best-placed one)."""
        defaults = [s for s in self.strategies if s.is_default_all_reduce]
        if matrix is not None:
            defaults = [s for s in defaults if s.matrix == matrix]
        if not defaults:
            raise EvaluationError("no default AllReduce strategy in this plan")
        return min(defaults, key=lambda s: s.predicted_seconds)

    def speedup_over_default(self) -> float:
        """Predicted speedup of the best strategy over the best-placed AllReduce.

        A zero-step strategy (the reduction groups are singletons, so no
        communication is needed) is predicted at 0.0s; against a default that
        does take time the speedup is infinite, not 1.0.  When the default
        itself is also free the two are equal and the speedup is 1.0.
        """
        best = self.best.predicted_seconds
        default = self.default_all_reduce().predicted_seconds
        if best <= 0:
            return float("inf") if default > 0 else 1.0
        return default / best

    def describe(self, top_k: int = 5) -> str:
        rows = [
            [i + 1, s.matrix.describe(), s.mnemonic, s.predicted_seconds,
             "yes" if s.is_default_all_reduce else ""]
            for i, s in enumerate(self.top(top_k))
        ]
        return format_table(
            ["rank", "matrix", "program", "predicted (s)", "default"],
            rows,
            title=(
                f"Top {min(top_k, len(self.strategies))} of {len(self.strategies)} strategies "
                f"({self.algorithm}, {self.bytes_per_device / 1e6:.0f} MB per device)"
            ),
            float_fmt="{:.4f}",
        )

    # ------------------------------------------------------------------ #
    # Serialization — any caller can persist and restore a ranked plan; the
    # service's plan cache (repro.service.cache) stores exactly this form.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Serialize the plan to a JSON-compatible dict (``format_version`` gated)."""
        hierarchy = self.candidates[0].matrix.hierarchy if self.candidates else None
        if hierarchy is None and self.strategies:
            hierarchy = self.strategies[0].matrix.hierarchy
        if hierarchy is None:
            raise ServiceError("cannot serialize an empty optimization plan")
        steps = StepTable()
        strategies = [strategy.to_dict(steps) for strategy in self.strategies]
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "hierarchy": {
                "names": list(hierarchy.names),
                "cardinalities": list(hierarchy.cardinalities),
            },
            "axes": {"sizes": list(self.axes.sizes), "names": list(self.axes.names)},
            "request": {"axes": list(self.request.axes)},
            "bytes_per_device": self.bytes_per_device,
            "algorithm": self.algorithm.value,
            "candidates": [
                {
                    "matrix": [list(row) for row in candidate.matrix.entries],
                    "synthesis_seconds": candidate.synthesis_seconds,
                }
                for candidate in self.candidates
            ],
            "strategies": strategies,
            "steps": steps.to_dict(),
            "baselines": {
                name: seconds for name, seconds in sorted(self.baselines.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "OptimizationPlan":
        """Reconstruct a plan from :meth:`to_dict` output.

        The ranking — strategy order, matrices, mnemonics, lowered programs
        and predicted times — is reproduced exactly.  Each entry of the
        ``"steps"`` table becomes one :class:`LoweredStep`, checked once, and
        every program refers to those objects, so the rebuilt plan shares
        steps as the computed one did.  Candidates are rebuilt with a fresh
        synthesis hierarchy (a cheap pure function of matrix + request) and
        ``synthesis=None``; their program lists mirror the ranked strategies.
        """
        version = data.get("format_version")
        if version != PLAN_FORMAT_VERSION:
            raise ServiceError(
                f"unsupported plan format version {version!r} (expected {PLAN_FORMAT_VERSION})"
            )
        hierarchy = SystemHierarchy.from_cardinalities(
            data["hierarchy"]["cardinalities"], tuple(data["hierarchy"]["names"])
        )
        axes = ParallelismAxes(
            tuple(data["axes"]["sizes"]), tuple(data["axes"]["names"])
        )
        request = ReductionRequest(tuple(data["request"]["axes"]))
        algorithm = NCCLAlgorithm(data["algorithm"])
        bytes_per_device = data["bytes_per_device"]
        steps = tuple(LoweredStep.from_dict(step) for step in data["steps"])

        candidates: List[PlacementCandidate] = []
        by_entries: Dict[Tuple[Tuple[int, ...], ...], PlacementCandidate] = {}

        def _candidate_for(
            entries: Tuple[Tuple[int, ...], ...], synthesis_seconds: float = 0.0
        ) -> PlacementCandidate:
            if entries not in by_entries:
                matrix = ParallelismMatrix(hierarchy, axes, entries)
                candidate = PlacementCandidate(
                    matrix=matrix,
                    placement=DevicePlacement(matrix),
                    hierarchy=build_synthesis_hierarchy(matrix, request),
                    synthesis=None,
                    programs=[],
                    synthesis_seconds=synthesis_seconds,
                )
                by_entries[entries] = candidate
                candidates.append(candidate)
            return by_entries[entries]

        for entry in data["candidates"]:
            matrix_entries = tuple(tuple(map(int, row)) for row in entry["matrix"])
            _candidate_for(matrix_entries, entry["synthesis_seconds"])

        strategies: List[RankedStrategy] = []
        for entry in data["strategies"]:
            candidate = _candidate_for(
                tuple(tuple(map(int, row)) for row in entry["matrix"])
            )
            strategy = RankedStrategy.from_dict(
                entry, candidate, steps, bytes_per_device=bytes_per_device
            )
            # The candidates here are freshly built above, so mirroring the
            # ranked strategies into their program lists cannot accumulate
            # duplicates across calls.
            candidate.programs.append(
                ProgramCandidate(
                    lowered=strategy.program,
                    mnemonic=strategy.mnemonic,
                    size=(
                        strategy.size
                        if strategy.size is not None
                        else strategy.program.num_steps
                    ),
                    is_default_all_reduce=strategy.is_default_all_reduce,
                )
            )
            strategies.append(strategy)

        return cls(
            axes=axes,
            request=request,
            bytes_per_device=bytes_per_device,
            algorithm=algorithm,
            strategies=strategies,
            candidates=candidates,
            baselines=dict(data.get("baselines", {})),
        )


@dataclass
class PlanComputation:
    """Everything one cold-path :func:`compute_plan` run produced.

    ``report`` and ``statistics`` are the search-driver and synthesizer
    provenance the :class:`~repro.query.PlanOutcome` surfaces (see
    ``PlanOutcome.provenance()``); the timing split matches the historical
    contract (synthesis = candidate enumeration + program synthesis,
    evaluation = pricing, interleaved by the streaming driver but accounted
    separately).
    """

    plan: "OptimizationPlan"
    synthesis_seconds: float
    evaluation_seconds: float
    report: SearchReport
    statistics: SearchStatistics

    def search_dict(self) -> Dict[str, Any]:
        return self.report.to_dict()

    def statistics_dict(self) -> Dict[str, Any]:
        return self.statistics.to_dict()


def compute_plan(
    topology: MachineTopology,
    cost_model: CostModel,
    query: PlanQuery,
    simulator: Optional[ProgramSimulator] = None,
    sources: Optional[Sequence[CandidateSource]] = None,
    recorder=None,
    shapes: Optional[ShapeMemo] = None,
) -> PlanComputation:
    """The cold path behind :meth:`P2.plan`.

    Runs the streaming :class:`~repro.search.SearchDriver` over the query's
    candidate sources, prices entries on the caller-owned ``simulator``
    (whose compiled-profile cache then persists across calls), and ranks the
    survivors.

    ``sources`` overrides the default baseline+synthesis pair (see
    :func:`repro.search.default_sources`), e.g. with a
    :class:`~repro.search.PinnedPlanSource` seed or a custom
    :class:`~repro.search.CandidateSource`.  :meth:`P2.plan` takes none: its
    fingerprint-keyed cache does not cover them.

    Without a search budget on the query the result is identical to the
    historical exhaustive pipeline; with one
    (:attr:`~repro.query.PlanQuery.max_candidates` /
    :attr:`~repro.query.PlanQuery.time_budget_s`) enumeration stops at the
    budget and lower-bound pruning drops provably non-optimal candidates —
    losslessly for the best strategy.

    ``recorder`` routes the driver's search spans and counters into a
    specific telemetry recorder (:mod:`repro.obs`); the process-wide one is
    used when omitted.

    ``shapes`` is a long-lived caller's :class:`~repro.search.ShapeMemo`:
    an exhaustive query whose shape it already holds skips synthesis,
    lowering and validation and is priced and ranked from the entries the
    first search of that shape produced — the same plan, bit for bit.

    A ``query.shards > 1`` routes the search through the
    :class:`~repro.search.sharded.ShardedSearchDriver` — the placement
    candidates are partitioned across worker processes that share a
    branch-and-bound incumbent (see :mod:`repro.search.sharded`).  Exhaustive
    sharded plans are bit-identical to ``shards=1``.
    """
    if query.shards > 1:
        from repro.search.sharded import ShardedSearchDriver

        driver = ShardedSearchDriver(
            topology,
            cost_model,
            shards=query.shards,
            simulator=simulator,
            recorder=recorder,
        )
    else:
        driver = SearchDriver(
            topology, cost_model, simulator=simulator, recorder=recorder
        )
    space = SearchSpace(
        topology=topology,
        cost_model=cost_model,
        query=query,
        shapes=shapes,
    )
    result = driver.run(space, sources=sources)
    plan = OptimizationPlan(
        axes=query.axes,
        request=query.request,
        bytes_per_device=query.bytes_per_device,
        algorithm=query.algorithm,
        strategies=rank_entries(
            result.entries, result.predicted, bytes_per_device=query.bytes_per_device
        ),
        candidates=result.candidates,
        baselines=result.baselines,
    )
    return PlanComputation(
        plan=plan,
        synthesis_seconds=result.synthesis_seconds,
        evaluation_seconds=result.evaluation_seconds,
        report=result.report,
        statistics=result.statistics,
    )


def rank_entries(
    entries: Sequence[StrategyEntry],
    predicted: Sequence[float],
    bytes_per_device: Optional[int] = None,
) -> List[RankedStrategy]:
    """Pair entries with their predicted times and stable-sort into a ranking.

    ``bytes_per_device`` stamps each strategy with the payload the times were
    predicted for, so downstream tools never guess it.
    """
    if len(entries) != len(predicted):
        raise EvaluationError(
            f"{len(predicted)} predictions for {len(entries)} strategy entries"
        )
    strategies = [
        RankedStrategy(
            matrix=entry.candidate.matrix,
            program=entry.lowered,
            mnemonic=entry.mnemonic,
            predicted_seconds=seconds,
            is_default_all_reduce=entry.is_default_all_reduce,
            candidate=entry.candidate,
            bytes_per_device=bytes_per_device,
            size=entry.size,
        )
        for entry, seconds in zip(entries, predicted)
    ]
    strategies.sort(key=lambda s: s.predicted_seconds)
    return strategies


class P2:
    """The planner: placement synthesis + strategy synthesis + ranking.

    :meth:`plan` answers a :class:`~repro.query.PlanQuery` with a
    :class:`~repro.query.PlanOutcome` (the :class:`~repro.query.Planner`
    protocol).  ``topology`` and ``cost_model`` are read-only: the simulator
    (compiled profiles keyed by program signature), the shape memo
    (validated entry streams keyed by query shape,
    :class:`~repro.search.ShapeMemo`) and every cached plan are bound to
    them, and all three persist across requests — a payload ladder over one
    shape synthesizes once and re-prices.  Search limits such as
    ``max_program_size`` belong to each query.

    ``cache`` is an optional :class:`~repro.service.cache.PlanCache`: each
    query is fingerprinted and answered from it when possible, and each
    unbudgeted cold plan stored back; without one the planner keeps no plans
    (:class:`~repro.service.engine.PlanningService` defaults to a memory-only
    cache).  ``recorder`` is captured at construction (default: the one
    installed via :func:`repro.obs.set_recorder`).  ``corpus`` is an optional
    :class:`~repro.corpus.store.PlanCorpus`: each cold query is seeded from
    its nearest records (lossless: exhaustive seeded plans are bit-identical
    to unseeded), each cold unbudgeted outcome is ingested back, and
    :meth:`warm_from_corpus` replays exact historical answers into the cache.
    """

    def __init__(
        self,
        topology: MachineTopology,
        cost_model: Optional[CostModel] = None,
        cache=None,
        recorder=None,
        corpus=None,
    ) -> None:
        self._topology = topology
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self.cache = cache
        self.recorder = recorder if recorder is not None else get_recorder()
        self._simulator = ProgramSimulator(topology, self._cost_model, recorder=self.recorder)
        self._shapes = ShapeMemo()
        self.corpus = corpus
        self._seeder = None
        if corpus is not None:
            # Imported lazily: repro.corpus sits above the planner.
            from repro.corpus.seeding import CorpusSeeder

            self._seeder = CorpusSeeder(corpus, topology, self._cost_model, recorder=self.recorder)
        self.requests_served = 0

    def query_fingerprint(self, query: PlanQuery) -> str:
        """The cache key this planner uses for ``query``."""
        from repro.service.fingerprint import plan_query_fingerprint

        return plan_query_fingerprint(self._topology, query, self._cost_model)

    def plan(self, query: PlanQuery) -> PlanOutcome:
        """Answer one :class:`PlanQuery`, from the cache when there is one."""
        start = time.perf_counter()
        recorder, cache = self.recorder, self.cache
        with recorder.span("service.plan") as root:
            fingerprint = self.query_fingerprint(query)
            cached = None
            if cache is not None:
                with recorder.span("cache.lookup"):
                    cached, tier = cache.lookup(fingerprint)
                if cached is not None:
                    try:
                        plan = OptimizationPlan.from_dict(cached)
                    except (ReproError, KeyError, TypeError, ValueError):
                        # A well-formed envelope around a semantically broken
                        # plan (a missing field, a step index outside the
                        # plan's table) is a miss: recompute, never crash.
                        cache.discard(fingerprint, corrupt=True)
                        cache.stats.demote_hit(tier)
                        recorder.count("cache.corrupt")
                        logger.debug("discarded corrupt entry %s (tier=%s)", fingerprint, tier)
                        cached = None
                recorder.count("cache.miss" if cached is None else f"cache.hit.{tier}")
            if cached is not None:
                # total_seconds is threaded through construction on both
                # paths: an outcome is never observable with a zero total.
                outcome = PlanOutcome(
                    query=query,
                    plan=plan,
                    fingerprint=fingerprint,
                    cache_tier=tier,
                    total_seconds=time.perf_counter() - start,
                    trace_id=root.trace_id,
                )
            else:
                outcome = self._compute(query, fingerprint, start, root.trace_id)
        recorder.observe("service.total_seconds", outcome.total_seconds)
        self.requests_served += 1
        return outcome

    def _compute(self, query: PlanQuery, fingerprint: str, start: float, trace_id) -> PlanOutcome:
        simulator, seeder = self._simulator, self._seeder
        hits_before, misses_before = simulator.profile_hits, simulator.profile_misses
        # Corpus seeds only tighten the watermark under a search budget, so an
        # exhaustive seeded plan is bit-identical to unseeded: sound to cache.
        computation = compute_plan(
            self._topology,
            self._cost_model,
            query,
            simulator=simulator,
            sources=seeder.seed_sources(query, fingerprint) if seeder is not None else None,
            recorder=self.recorder,
            shapes=self._shapes,
        )
        # Budgeted plans are never cached: a wall-clock budget is not a
        # deterministic function of the query.  Exhaustive sharded plans are
        # bit-identical to serial ones, so the shard-neutral key is sound.
        if self.cache is not None and not query.has_search_budget:
            with self.recorder.span("cache.store"):
                self.cache.put(fingerprint, computation.plan.to_dict())
        outcome = PlanOutcome(
            query=query,
            plan=computation.plan,
            synthesis_seconds=computation.synthesis_seconds,
            evaluation_seconds=computation.evaluation_seconds,
            total_seconds=time.perf_counter() - start,
            fingerprint=fingerprint,
            cache_tier=None,
            profile_hits=simulator.profile_hits - hits_before,
            profile_misses=simulator.profile_misses - misses_before,
            search=computation.search_dict(),
            synthesis_stats=computation.statistics_dict(),
            trace_id=trace_id,
        )
        if seeder is not None and not query.has_search_budget:
            seeder.ingest(outcome)
        return outcome

    def plan_stream(self, queries: Iterable[PlanQuery]) -> Iterator[PlanOutcome]:
        """Answer queries lazily, one outcome yielded as each query finishes."""
        for query in queries:
            yield self.plan(query)

    def plan_many(self, queries: Sequence[PlanQuery]) -> List[PlanOutcome]:
        """Answer a batch of queries, in order (with a cache, a duplicate
        within the batch is a memory hit)."""
        return list(self.plan_stream(queries))

    def warm(self, queries: Sequence[PlanQuery]) -> int:
        """Precompute plans for ``queries``; return how many were cold."""
        return sum(1 for query in queries if not self.plan(query).cache_hit)

    def warm_from_corpus(self) -> int:
        """Replay the corpus into the cache without searching; return how many
        plans (none without a corpus or a cache).  Only records whose stored
        fingerprint matches what this planner computes are replayed."""
        if self.corpus is None or self.cache is None:
            return 0
        from repro.corpus.seeding import warm_from_corpus

        return warm_from_corpus(self, self.corpus)

    def describe(self) -> str:
        cache = f"; {self.cache.describe()}" if self.cache is not None else ""
        return (
            f"{type(self).__name__}({self._topology.name}, served={self.requests_served}, "
            f"{self._shapes.describe()}{cache})"
        )

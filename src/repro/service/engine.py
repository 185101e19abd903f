"""The planning service: a production-shaped engine around P² queries.

:class:`PlanningService` wraps the synthesis pipeline and the simulator
behind the three things a serving layer needs:

* **caching** — every query is fingerprinted
  (:mod:`repro.service.fingerprint`) and answered from a two-tier
  :class:`~repro.service.cache.PlanCache` when possible; cold plans are
  serialized back into the cache so subsequent processes warm-start from
  disk,
* **sharded search** — a query with ``shards > 1`` partitions its
  placement space across worker processes
  (:mod:`repro.search.sharded`); exhaustive sharded plans are bit-identical
  to serial ones, so they share the cache,
* **a batch API** — :meth:`plan_many` answers a list of queries,
  deduplicating identical queries within the batch so each distinct plan is
  computed (or fetched) once.

The service speaks the :class:`~repro.query.PlanQuery` /
:class:`~repro.query.PlanOutcome` object model — it satisfies the
:class:`~repro.query.Planner` protocol, interchangeable with a bare
:class:`repro.api.P2` — and every outcome carries provenance (fingerprint,
cache tier, timing breakdown) so callers can monitor hit rates and latency
without instrumenting the pipeline themselves.  The pre-query
:class:`PlanningRequest` / :meth:`submit` / :meth:`optimize_many` API remains
as a thin shim.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; corpus sits above us
    from repro.corpus.store import PlanCorpus

from repro.api import OptimizationPlan, compute_plan
from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.cost.nccl import NCCLAlgorithm
from repro.errors import ReproError, ServiceError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.obs.recorder import get_recorder
from repro.query import PlanOutcome, PlanQuery
from repro.search.source import SHAPE_MEMO_SHAPES, ShapeMemo
from repro.service.cache import PlanCache
from repro.service.fingerprint import canonical_topology, plan_query_fingerprint
from repro.topology.topology import MachineTopology

__all__ = ["PlanningRequest", "RequestStats", "PlanningResponse", "PlanningService"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanningRequest:
    """One query against the planning service (the batch API's unit of work)."""

    axes: ParallelismAxes
    request: ReductionRequest
    bytes_per_device: int
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING
    max_matrices: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bytes_per_device <= 0:
            raise ServiceError("bytes_per_device must be positive")
        self.request.validate_against(self.axes)

    def to_query(self, max_program_size: int) -> PlanQuery:
        """The :class:`PlanQuery` this request denotes under a service's limits."""
        return PlanQuery(
            axes=self.axes,
            request=self.request,
            bytes_per_device=self.bytes_per_device,
            algorithm=self.algorithm,
            max_matrices=self.max_matrices,
            max_program_size=max_program_size,
        )

    def describe(self) -> str:
        return (
            f"{self.axes.describe()} {self.request.describe(self.axes)}, "
            f"{self.bytes_per_device / 1e6:.0f} MB, {self.algorithm}"
        )


@dataclass
class RequestStats:
    """How one request was answered: cache tier and timing breakdown."""

    fingerprint: str
    cache_tier: Optional[str]  # "memory" | "disk" | None (cold)
    total_seconds: float = 0.0
    synthesis_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    num_candidates: int = 0
    num_strategies: int = 0

    @property
    def cache_hit(self) -> bool:
        return self.cache_tier is not None

    def describe(self) -> str:
        source = self.cache_tier or "cold"
        detail = (
            f"synthesis {self.synthesis_seconds * 1e3:.1f} ms, "
            f"evaluation {self.evaluation_seconds * 1e3:.1f} ms"
            if not self.cache_hit
            else "cached plan"
        )
        return (
            f"[{source}] {self.num_strategies} strategies over "
            f"{self.num_candidates} placements in {self.total_seconds * 1e3:.1f} ms ({detail})"
        )


@dataclass
class PlanningResponse:
    """One answered request: the plan plus how it was produced."""

    request: PlanningRequest
    plan: OptimizationPlan
    stats: RequestStats


class PlanningService:
    """Cached, batch-capable front end to P².

    Parameters
    ----------
    topology / cost_model / max_program_size:
        The fixed parts of every query this service answers; they participate
        in each request's fingerprint.
    cache:
        The plan cache to serve from; defaults to a fresh memory-only
        :class:`PlanCache`.  Pass one with a ``directory`` to warm-start
        across processes.
    corpus:
        An optional :class:`~repro.corpus.store.PlanCorpus` of planning
        history.  When set, every cold query is seeded from its nearest
        corpus neighbors (lossless: exhaustive seeded plans are
        bit-identical to unseeded, so caching them stays sound), every
        cold unbudgeted outcome is ingested back, and
        :meth:`warm_from_corpus` can replay exact historical answers into
        the cache on boot.
    """

    def __init__(
        self,
        topology: MachineTopology,
        cost_model: Optional[CostModel] = None,
        max_program_size: int = 5,
        cache: Optional[PlanCache] = None,
        recorder=None,
        corpus: Optional["PlanCorpus"] = None,
    ) -> None:
        self.topology = topology
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.max_program_size = max_program_size
        self.cache = cache if cache is not None else PlanCache()
        # The telemetry recorder every request reports into, captured at
        # construction (install one via repro.obs.set_recorder first, or pass
        # it explicitly — embeddings like the serving daemon do the latter).
        self.recorder = recorder if recorder is not None else get_recorder()
        # One simulator and one shape memo for every cold path: compiled
        # profiles (keyed by program signature) and validated entry streams
        # (keyed by query shape) persist across requests, so a payload ladder
        # over one shape synthesizes once and re-prices.
        self._simulator = ProgramSimulator(
            topology, self.cost_model, recorder=self.recorder
        )
        self._shapes = ShapeMemo()
        self.corpus = corpus
        if corpus is not None:
            # Imported lazily: repro.corpus sits above the service layer
            # (its store canonicalizes through repro.service.fingerprint),
            # so a module-level import here would be circular.
            from repro.corpus.seeding import CorpusSeeder

            self._seeder = CorpusSeeder(
                corpus, topology, self.cost_model, recorder=self.recorder
            )
        else:
            self._seeder = None
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    # The Planner protocol: plan / plan_many over PlanQuery objects
    # ------------------------------------------------------------------ #
    def query_fingerprint(self, query: PlanQuery) -> str:
        """The cache key this service uses for ``query``."""
        return plan_query_fingerprint(self.topology, query, self.cost_model)

    def plan(self, query: PlanQuery) -> PlanOutcome:
        """Answer one :class:`PlanQuery`, from cache when possible.

        The query's own ``max_program_size`` / ``max_matrices`` are honoured
        (the service's ``max_program_size`` is only the default applied when
        legacy :class:`PlanningRequest` objects are converted).
        """
        start = time.perf_counter()
        recorder = self.recorder
        with recorder.span("service.plan") as root:
            fingerprint = self.query_fingerprint(query)
            with recorder.span("cache.lookup"):
                cached, tier = self.cache.lookup(fingerprint)
            if cached is not None:
                try:
                    plan = OptimizationPlan.from_dict(cached)
                except (ReproError, KeyError, TypeError, ValueError):
                    # A well-formed envelope around a semantically broken plan
                    # (a missing field, a step index outside the plan's table):
                    # honour the cache contract (corrupt entries are misses) and
                    # recompute rather than crash the service.
                    self.cache.discard(fingerprint, corrupt=True)
                    self.cache.stats.demote_hit(tier)
                    recorder.count("cache.corrupt")
                    logger.debug(
                        "discarded corrupt cache entry %s (tier=%s)",
                        fingerprint,
                        tier,
                    )
                    cached = None
            if cached is not None:
                recorder.count(f"cache.hit.{tier}")
                logger.debug("cache hit (%s) for %s", tier, fingerprint)
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
                recorder.count("cache.miss")
                logger.debug("cache miss for %s; computing plan", fingerprint)
                hits_before = self._simulator.profile_hits
                misses_before = self._simulator.profile_misses
                # Corpus warm start: replay the nearest historical plans as
                # pinned seeds ahead of the default sources.  Seeding is
                # fingerprint-neutral — seeds only tighten the watermark
                # under a search budget, so an exhaustive seeded plan is
                # bit-identical to unseeded and stays sound to cache below.
                sources = (
                    self._seeder.seed_sources(query, fingerprint)
                    if self._seeder is not None
                    else None
                )
                computation = compute_plan(
                    self.topology,
                    self.cost_model,
                    query,
                    simulator=self._simulator,
                    recorder=recorder,
                    sources=sources,
                    shapes=self._shapes,
                )
                plan = computation.plan
                # Exhaustive sharded plans are bit-identical to serial ones, so
                # caching them under the shard-neutral fingerprint is sound.
                # Budgeted plans are never cached: a wall-clock budget is not a
                # deterministic function of the query (the same fingerprint can
                # denote different plans on a slower machine), and a budgeted
                # sharded search may rank a different tail than shards=1.
                if not query.has_search_budget:
                    with recorder.span("cache.store"):
                        self.cache.put(fingerprint, plan.to_dict())
                else:
                    logger.debug(
                        "budgeted query %s not cached (non-deterministic tail)",
                        fingerprint,
                    )
                outcome = PlanOutcome(
                    query=query,
                    plan=plan,
                    synthesis_seconds=computation.synthesis_seconds,
                    evaluation_seconds=computation.evaluation_seconds,
                    total_seconds=time.perf_counter() - start,
                    fingerprint=fingerprint,
                    cache_tier=None,
                    profile_hits=self._simulator.profile_hits - hits_before,
                    profile_misses=self._simulator.profile_misses - misses_before,
                    search=computation.search_dict(),
                    synthesis_stats=computation.statistics_dict(),
                    trace_id=root.trace_id,
                )
                # Every cold unbudgeted answer becomes history the next
                # related query can seed from (the corpus itself refuses
                # budgeted outcomes and dedupes repeats).
                if self._seeder is not None and not query.has_search_budget:
                    self._seeder.ingest(outcome)
        recorder.observe("service.total_seconds", outcome.total_seconds)
        self.requests_served += 1
        return outcome

    def plan_stream(self, queries: Iterable[PlanQuery]) -> Iterator[PlanOutcome]:
        """Answer queries lazily: one outcome yielded as each query finishes.

        Streaming front ends (JSONL emitters, the sweep engine) consume this
        instead of :meth:`plan_many` so results flush incrementally and an
        interrupted run still leaves every completed outcome delivered.
        """
        for query in queries:
            yield self.plan(query)

    def plan_many(self, queries: Sequence[PlanQuery]) -> List[PlanOutcome]:
        """Answer a batch of queries, computing each distinct query once.

        Duplicate queries (same fingerprint) within the batch are answered
        from the cache — only the first occurrence pays synthesis and
        simulation; the rest pay a lookup plus plan reconstruction.  Each
        outcome reports how *its* lookup was served, so a duplicate of a
        cold query shows up as a memory hit.
        """
        return list(self.plan_stream(queries))

    # ------------------------------------------------------------------ #
    # Legacy single-request / batch API (pre-PlanQuery shims)
    # ------------------------------------------------------------------ #
    def fingerprint(self, request: PlanningRequest) -> str:
        """The cache key this service uses for ``request``."""
        return self.query_fingerprint(request.to_query(self.max_program_size))

    def optimize(
        self,
        axes: ParallelismAxes,
        request: ReductionRequest,
        bytes_per_device: int,
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
        max_matrices: Optional[int] = None,
    ) -> OptimizationPlan:
        """Drop-in replacement for :meth:`repro.api.P2.optimize`."""
        return self.submit(
            PlanningRequest(axes, request, bytes_per_device, algorithm, max_matrices)
        ).plan

    def submit(self, request: PlanningRequest) -> PlanningResponse:
        """Answer one legacy request (a shim over :meth:`plan`)."""
        outcome = self.plan(request.to_query(self.max_program_size))
        stats = RequestStats(
            fingerprint=outcome.fingerprint or "",
            cache_tier=outcome.cache_tier,
            total_seconds=outcome.total_seconds,
            synthesis_seconds=outcome.synthesis_seconds,
            evaluation_seconds=outcome.evaluation_seconds,
            num_candidates=outcome.num_candidates,
            num_strategies=outcome.num_strategies,
        )
        return PlanningResponse(request=request, plan=outcome.plan, stats=stats)

    def optimize_many(
        self, requests: Sequence[PlanningRequest]
    ) -> List[PlanningResponse]:
        """Answer a batch of legacy requests (see :meth:`plan_many`)."""
        return [self.submit(request) for request in requests]

    def warm(self, requests: Sequence[Union[PlanQuery, PlanningRequest]]) -> int:
        """Precompute plans for ``requests``; return how many were cold.

        Accepts :class:`PlanQuery` objects directly — the daemon's warm-file
        format is plain ``PlanQuery`` JSONL, the same shape ``serve-batch``
        reads — and keeps accepting legacy :class:`PlanningRequest` objects
        (converted under this service's ``max_program_size``) as a shim.
        """
        cold = 0
        for item in requests:
            query = (
                item
                if isinstance(item, PlanQuery)
                else item.to_query(self.max_program_size)
            )
            if not self.plan(query).cache_hit:
                cold += 1
        return cold

    def warm_from_corpus(self) -> int:
        """Replay this service's corpus into its cache; return how many plans.

        Only records whose stored fingerprint matches what this service
        computes for the same query are replayed (binding topology, cost
        model and fingerprint version at once); a service without a corpus
        warms nothing.  Unlike :meth:`warm`, no search ever runs — this is
        pure cache population, suitable for daemon boot.
        """
        if self.corpus is None:
            return 0
        from repro.corpus.seeding import warm_from_corpus

        return warm_from_corpus(self, self.corpus)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def compatible_with(self, topology: MachineTopology) -> bool:
        """True when ``topology`` is canonically identical to this service's."""
        return canonical_topology(topology) == canonical_topology(self.topology)

    def describe(self) -> str:
        return (
            f"PlanningService({self.topology.name}, max_program_size="
            f"{self.max_program_size}, served={self.requests_served}, "
            f"shape memo {len(self._shapes)}/{SHAPE_MEMO_SHAPES}; "
            f"{self.cache.describe()})"
        )

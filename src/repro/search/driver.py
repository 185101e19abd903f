"""The streaming search driver: incremental pricing with branch-and-bound.

:class:`SearchDriver` replaces the materialize-everything spine
(synthesize everything, flatten, price, rank; ``tests/oracles/pipeline.py``) with a
single pass over lazily enumerated :class:`~repro.search.source.StrategyEntry`
streams:

* entries are priced *as they arrive* through the compiled-profile fast path
  (:mod:`repro.cost.profile`), deduplicating identical communication
  patterns exactly like the eager pipeline did;
* an incumbent :class:`~repro.search.source.Watermark` tracks the best
  exactly-priced in-space time, per matrix and globally;
* under a :class:`~repro.query.PlanQuery` search budget (``max_candidates``
  / ``time_budget_s``) candidates whose closed-form lower bound
  (:mod:`repro.search.bounds`) exceeds the incumbent are rejected without
  being priced, whole placements can be skipped before synthesis, and
  enumeration stops at the budget — all *losslessly* for the best strategy:
  a candidate is only ever skipped when its most optimistic time is already
  worse than a plan the driver holds.

Without a budget the driver is exhaustive and reproduces the historical
pipeline bit for bit — same entries, same predicted floats, same
profile-cache traffic — which is what keeps the planning service's
fingerprint cache and the tier-1 determinism contracts sound.

Pricing takes one of two paths: an exhaustive run buffers the stream and
prices it in one ``price_many`` batch at the end, while a
budgeted run prices entry by entry so every bound check reads the freshest
incumbent.  Parallel search is :mod:`repro.search.sharded`, whose workers
run this same loop over slices of the placement space.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.obs.recorder import Stopwatch, get_recorder
from repro.search.bounds import program_lower_bound
from repro.search.source import (
    ROLE_BASELINE,
    ROLE_SEED,
    CandidateSource,
    SearchSpace,
    StrategyEntry,
    Watermark,
    default_sources,
)
from repro.synthesis.lowering import LoweredProgram
from repro.synthesis.pipeline import PlacementCandidate
from repro.synthesis.pruning import SearchStatistics
from repro.topology.topology import MachineTopology

__all__ = ["SearchReport", "SearchResult", "SearchDriver"]

logger = logging.getLogger(__name__)

_SENTINEL = object()


@dataclass
class SearchReport:
    """Provenance counters of one streaming search (JSON-ready via to_dict)."""

    sources: List[str] = field(default_factory=list)
    budgeted: bool = False
    considered: int = 0          # search entries pulled from the stream
    ranked: int = 0              # entries that were priced and kept
    bound_rejected: int = 0      # skipped: lower bound > incumbent
    placements_pruned: int = 0   # whole matrices skipped before synthesis
    baseline_entries: int = 0    # baseline reference entries priced
    seeds: int = 0               # pinned entries priced to seed the incumbent
    watermark_updates: int = 0   # times a priced entry lowered the incumbent
    matrices_reached: int = 0    # placements whose entries were seen
    budget_stopped: bool = False  # stream cut by max_candidates
    time_stopped: bool = False    # stream cut by time_budget_s
    incumbent_seconds: Optional[float] = None  # final best exact time
    # Monotonic seconds from search start until the final incumbent cost was
    # *first* reached (ties keep the earliest), and whether the entry that
    # first reached it came from a seed source (a corpus/pinned warm start).
    time_to_incumbent_s: Optional[float] = None
    seeded_incumbent: bool = False
    batch_prices: int = 0         # price_programs calls
    batch_payloads: int = 0       # programs those calls priced
    # Profile compiles on this driver's simulator that reused the validation sweep.
    semantics_reused: int = 0
    # Source streams answered from the planner's shape memo: their entries were
    # synthesized, lowered and validated by an earlier search of the same shape.
    reused_streams: int = 0
    shards: int = 1               # worker processes the search ran across
    shard_steals: int = 0         # matrices claimed outside a shard's home slice
    # Per-shard provenance (matrices claimed, steals, counters, seconds),
    # populated only by the sharded driver.
    shard_stats: Optional[List[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "sources": list(self.sources),
            "budgeted": self.budgeted,
            "considered": self.considered,
            "ranked": self.ranked,
            "bound_rejected": self.bound_rejected,
            "placements_pruned": self.placements_pruned,
            "baseline_entries": self.baseline_entries,
            "seeds": self.seeds,
            "watermark_updates": self.watermark_updates,
            "matrices_reached": self.matrices_reached,
            "budget_stopped": self.budget_stopped,
            "time_stopped": self.time_stopped,
            "incumbent_seconds": self.incumbent_seconds,
            "time_to_incumbent_s": self.time_to_incumbent_s,
            "seeded_incumbent": self.seeded_incumbent,
            "batch_prices": self.batch_prices,
            "batch_payloads": self.batch_payloads,
            "semantics_reused": self.semantics_reused,
            "reused_streams": self.reused_streams,
            "shards": self.shards,
            "shard_steals": self.shard_steals,
        }
        if self.shard_stats is not None:
            data["shard_stats"] = [dict(stats) for stats in self.shard_stats]
        return data


@dataclass
class SearchResult:
    """Everything one driver run produced, ready for ranking."""

    entries: List[StrategyEntry]
    predicted: List[float]
    candidates: List[PlacementCandidate]
    baselines: Dict[str, float]
    report: SearchReport
    statistics: SearchStatistics
    synthesis_seconds: float
    evaluation_seconds: float


def note_sharing(span, candidates: Sequence[PlacementCandidate]) -> None:
    """On a ``search.run`` span: the matrices reached and how many distinct
    synthesis problems — (radices, goal) pairs — they posed."""
    hierarchies = [c.synthesis.hierarchy for c in candidates if c.synthesis is not None]
    span.set_attr("matrices", len(candidates))
    span.set_attr("distinct_synthesis_problems", len({(h.radices, h.goal()) for h in hierarchies}))


class _EntryPricer:
    """Exact pricing with the eager pipeline's signature deduplication.

    One simulator call per distinct ``(num_devices, signature)``; duplicates
    copy the first price without touching the simulator, so the
    profile-cache hit/miss provenance is identical to the eager pipeline's
    accounting (``tests/oracles/pipeline.py``).
    """

    def __init__(self, simulator: ProgramSimulator, space: SearchSpace) -> None:
        self.simulator = simulator
        self.bytes_per_device = space.query.bytes_per_device
        self.algorithm = space.query.algorithm
        self._first: Dict[Tuple, float] = {}

    def price(self, entry: StrategyEntry) -> float:
        program = entry.lowered
        if program.num_steps == 0:
            return 0.0
        key = (program.num_devices, program.signature())
        known = self._first.get(key)
        if known is not None:
            return known
        seconds = self.simulator.simulate(
            program, self.bytes_per_device, self.algorithm
        ).total_seconds
        self._first[key] = seconds
        return seconds

    def price_many(self, entries: Sequence[StrategyEntry]) -> List[float]:
        """Price a buffered entry list through one ``price_programs`` call.

        Shares the first-occurrence memo with :meth:`price`: duplicates —
        within the batch or against entries priced earlier — copy the first
        price, and the distinct programs reach the simulator in buffer
        order, so profile compilation order and hit/miss provenance are
        exactly what per-entry :meth:`price` calls would produce.  The
        prices themselves are exact-equal floats (both paths run the same
        step scan), so rankings can never shift.
        """
        out = [0.0] * len(entries)
        distinct: List[LoweredProgram] = []
        keys: List[Tuple] = []
        positions: Dict[Tuple, List[int]] = {}
        for i, entry in enumerate(entries):
            program = entry.lowered
            if program.num_steps == 0:
                continue
            key = (program.num_devices, program.signature())
            known = self._first.get(key)
            if known is not None:
                out[i] = known
                continue
            bucket = positions.get(key)
            if bucket is None:
                positions[key] = [i]
                distinct.append(program)
                keys.append(key)
            else:
                bucket.append(i)
        if distinct:
            totals = self.simulator.simulate_many(
                distinct, self.bytes_per_device, self.algorithm
            )
            for key, seconds in zip(keys, totals):
                self._first[key] = seconds
                for i in positions[key]:
                    out[i] = seconds
        return out


class SearchDriver:
    """Streams entries from candidate sources into an incrementally priced plan.

    Parameters
    ----------
    topology / cost_model:
        The pricing context (must match the query's fingerprint context).
    simulator:
        Optional caller-owned simulator whose compiled-profile cache then
        persists across runs (payload ladders re-price instead of
        recompiling).  A fresh one is used per run otherwise.
    recorder:
        The telemetry recorder (:mod:`repro.obs`) search spans and counters
        report into; defaults to the process-wide recorder at construction
        time (a no-op unless telemetry was enabled).
    """

    def __init__(
        self,
        topology: MachineTopology,
        cost_model: CostModel,
        simulator: Optional[ProgramSimulator] = None,
        recorder=None,
    ) -> None:
        self.topology = topology
        self.cost_model = cost_model
        self.simulator = simulator
        self.recorder = recorder if recorder is not None else get_recorder()

    # ------------------------------------------------------------------ #
    def run(
        self,
        space: SearchSpace,
        sources: Optional[Sequence[CandidateSource]] = None,
        watermark: Optional[Watermark] = None,
    ) -> SearchResult:
        """Drive one search over ``space`` and return everything it produced.

        ``watermark`` injects a caller-owned incumbent — anything with the
        :class:`~repro.search.source.Watermark` interface (a ``seconds``
        attribute and an ``update(seconds) -> bool`` method).  The sharded
        driver passes a cross-process view here so one shard's incumbent
        bounds every other shard's search; ``None`` uses a fresh private one.
        """
        source_list = list(sources) if sources is not None else default_sources()
        with self.recorder.span(
            "search.run", budgeted=space.query.has_search_budget
        ) as span:
            result = self._run(space, source_list, watermark=watermark)
            if self.recorder.enabled:
                note_sharing(span, result.candidates)
            return result

    def _run(
        self,
        space: SearchSpace,
        source_list: List[CandidateSource],
        watermark: Optional[Watermark] = None,
    ) -> SearchResult:
        query = space.query
        budgeted = query.has_search_budget
        if watermark is None:
            watermark = Watermark()
        report = SearchReport(
            sources=[source.name for source in source_list], budgeted=budgeted
        )
        statistics = SearchStatistics()
        simulator = (
            self.simulator
            if self.simulator is not None
            else ProgramSimulator(self.topology, self.cost_model)
        )
        pricer = _EntryPricer(simulator, space)

        entries: List[StrategyEntry] = []
        predicted: List[float] = []
        candidates: List[PlacementCandidate] = []
        # The candidates this search synthesized itself (a stream answered from
        # the shape memo hands over an earlier search's): the work counters
        # below report work done, not work inherited.
        worked: List[PlacementCandidate] = []
        seen_candidates: Set[int] = set()
        baselines: Dict[str, float] = {}
        # The synthesis/evaluation wall-clock split is part of the outcome
        # provenance contract; stopwatches accumulate it across the
        # interleaved pulls and pricing calls.
        synthesis_watch = Stopwatch()
        evaluation_watch = Stopwatch()
        start = time.perf_counter()

        # Incumbent-time tracking: the wall-clock moment the final incumbent
        # cost is *first* reached, and whether a seed reached it.  Strict
        # ``<`` keeps the earliest entry at the final cost, so a seed
        # replaying the eventual winner is credited even though later search
        # entries tie it with the exact same float.
        incumbent_value = float("inf")
        incumbent_at: Optional[float] = None
        incumbent_seeded = False

        def note_price(seconds: float, seeded: bool = False) -> None:
            nonlocal incumbent_value, incumbent_at, incumbent_seeded
            if seconds < incumbent_value:
                incumbent_value = seconds
                incumbent_at = time.perf_counter() - start
                incumbent_seeded = seeded

        # Exhaustive path: nothing reads or updates the watermark here — seeds
        # are still priced per-entry (they time-stamp the incumbent early) but
        # only lower the watermark under a search budget, so an exhaustive
        # stream never prunes and a seeded exhaustive plan stays bit-identical
        # to unseeded.  The stream is therefore buffered and priced in one
        # batch at the end — same entries, same floats, same
        # profile-cache traffic as per-entry pricing.
        buffered: List[Tuple[StrategyEntry, str]] = []
        counters_before = (
            simulator.batch_prices,
            simulator.batch_payloads,
            simulator.semantics_reused,
            simulator.steps_profiled,
            simulator.steps_compiled,
        )
        shapes = space.shapes
        memo_before = (
            (shapes.hits, shapes.misses, shapes.evicted) if shapes is not None else None
        )

        def register(candidate: PlacementCandidate) -> None:
            if id(candidate) not in seen_candidates:
                seen_candidates.add(id(candidate))
                candidates.append(candidate)

        def price_entry(entry: StrategyEntry) -> float:
            with evaluation_watch:
                return pricer.price(entry)

        def record_baseline(entry: StrategyEntry, seconds: float) -> None:
            tag = entry.tag or entry.mnemonic
            known = baselines.get(tag)
            if known is None or seconds < known:
                baselines[tag] = seconds

        stopped = False
        for source in source_list:
            if stopped:
                break
            with self.recorder.span(
                "search.source", source=source.name, role=source.role
            ):
                reused_before, first_own = report.reused_streams, len(candidates)
                iterator = source.entries(space, watermark, report)
                is_search = source.role not in (ROLE_BASELINE, ROLE_SEED)
                while True:
                    if is_search and budgeted:
                        if (
                            query.max_candidates is not None
                            and report.considered >= query.max_candidates
                        ):
                            report.budget_stopped = True
                            stopped = True
                            logger.debug(
                                "stopping search: candidate budget %d reached",
                                query.max_candidates,
                            )
                            break
                        # The first search entry is always considered, however
                        # small the budget: a plan must hold at least one ranked
                        # strategy (the first placement's default AllReduce) to
                        # be a plan at all.
                        if (
                            query.time_budget_s is not None
                            and report.considered > 0
                            and time.perf_counter() - start > query.time_budget_s
                        ):
                            report.time_stopped = True
                            stopped = True
                            logger.debug(
                                "stopping search: time budget %.3fs exhausted",
                                query.time_budget_s,
                            )
                            break
                    with synthesis_watch:
                        item = next(iterator, _SENTINEL)
                    if item is _SENTINEL:
                        break
                    if source.role == ROLE_BASELINE:
                        report.baseline_entries += 1
                        if not budgeted:
                            buffered.append((item, ROLE_BASELINE))
                        else:
                            record_baseline(item, price_entry(item))
                        continue
                    if source.role == ROLE_SEED:
                        report.seeds += 1
                        seconds = price_entry(item)
                        note_price(seconds, seeded=True)
                        # Seeds only lower the watermark under a search
                        # budget: an exhaustive stream must never prune, so a
                        # seeded exhaustive plan stays bit-identical to
                        # unseeded (which keeps corpus-seeded plans sound to
                        # service-cache).
                        if budgeted and watermark.update(seconds):
                            report.watermark_updates += 1
                        continue
                    report.considered += 1
                    register(item.candidate)
                    if not budgeted:
                        buffered.append((item, "search"))
                        continue
                    if not item.is_default_all_reduce:
                        with evaluation_watch:
                            bound = self._entry_bound(item, space, simulator)
                        if bound > watermark.seconds:
                            report.bound_rejected += 1
                            continue
                    seconds = price_entry(item)
                    entries.append(item)
                    predicted.append(seconds)
                    note_price(seconds)
                    if watermark.update(seconds):
                        report.watermark_updates += 1
                if stopped and hasattr(iterator, "close"):
                    # An abandoned stream drops its search state (and counts
                    # what it shared) here, not when the generator is collected.
                    iterator.close()
                if report.reused_streams == reused_before:
                    worked.extend(candidates[first_own:])

        if buffered:
            with evaluation_watch:
                seconds_list = pricer.price_many([entry for entry, _ in buffered])
            for (entry, role), seconds in zip(buffered, seconds_list):
                if role == ROLE_BASELINE:
                    record_baseline(entry, seconds)
                else:
                    entries.append(entry)
                    predicted.append(seconds)
                    note_price(seconds)

        # Aggregate the synthesizer statistics only now: a streaming source
        # keeps accumulating counters on a candidate's SynthesisResult after
        # its first entry was seen.
        for candidate in candidates:
            if candidate.synthesis is not None:
                statistics.merge(candidate.synthesis.statistics)

        report.ranked = len(entries)
        report.matrices_reached = len(candidates)
        report.batch_prices = simulator.batch_prices - counters_before[0]
        report.batch_payloads = simulator.batch_payloads - counters_before[1]
        report.semantics_reused = simulator.semantics_reused - counters_before[2]
        if watermark.seconds < float("inf"):
            report.incumbent_seconds = watermark.seconds
        elif predicted:
            report.incumbent_seconds = min(predicted)
        if incumbent_at is not None:
            report.time_to_incumbent_s = incumbent_at
            report.seeded_incumbent = incumbent_seeded

        logger.debug(
            "search complete: %d considered, %d ranked, %d bound-rejected, "
            "%d placements pruned, %d watermark updates",
            report.considered,
            report.ranked,
            report.bound_rejected,
            report.placements_pruned,
            report.watermark_updates,
        )
        recorder = self.recorder
        recorder.count("search.considered", report.considered)
        recorder.count("search.ranked", report.ranked)
        recorder.count("search.bound_rejected", report.bound_rejected)
        recorder.count("search.placements_pruned", report.placements_pruned)
        recorder.count("search.watermark_updates", report.watermark_updates)
        recorder.count("search.baseline_entries", report.baseline_entries)
        # What the matrices' programs shared, once per search: contexts expanded, lowered
        # steps validated vs Hoare transitions checked, profile steps vs steps analysed.
        synthesized = [c.synthesis for c in worked if c.synthesis is not None]
        recorder.count("synthesis.contexts_expanded", sum(s.contexts_expanded for s in synthesized))
        recorder.count("semantics.steps", sum(c.semantic_steps for c in worked))
        recorder.count("semantics.transitions", sum(c.semantic_transitions for c in worked))
        recorder.count("profile.steps", simulator.steps_profiled - counters_before[3])
        recorder.count("profile.steps_compiled", simulator.steps_compiled - counters_before[4])
        if memo_before is not None:
            recorder.count("search.shape_memo.hit", shapes.hits - memo_before[0])
            recorder.count("search.shape_memo.miss", shapes.misses - memo_before[1])
            recorder.count("search.shape_memo.evicted", shapes.evicted - memo_before[2])
            recorder.gauge("search.shape_memo.shapes", len(shapes))
        recorder.observe("search.synthesis_seconds", synthesis_watch.seconds)
        recorder.observe("search.evaluation_seconds", evaluation_watch.seconds)
        if report.time_to_incumbent_s is not None:
            recorder.observe(
                "search.time_to_incumbent_s", report.time_to_incumbent_s
            )
        return SearchResult(
            entries=entries,
            predicted=predicted,
            candidates=candidates,
            baselines=baselines,
            report=report,
            statistics=statistics,
            synthesis_seconds=synthesis_watch.seconds,
            evaluation_seconds=evaluation_watch.seconds,
        )

    # ------------------------------------------------------------------ #
    def _entry_bound(
        self,
        entry: StrategyEntry,
        space: SearchSpace,
        simulator: ProgramSimulator,
    ) -> float:
        """The tightest admissible lower bound available for ``entry`` now."""
        program = entry.lowered
        if program.num_steps == 0:
            return 0.0
        profile = simulator.profiles.peek(program.signature())
        if profile is not None:
            return profile.lower_bound(
                space.query.bytes_per_device, space.query.algorithm, space.cost_model
            )
        return program_lower_bound(program, space.topology, space.cost_model)

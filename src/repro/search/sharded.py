"""Sharded cold-plan search: the placement space across worker processes.

ROADMAP item 2 made real.  :class:`ShardedSearchDriver` partitions the
canonical parallelism-matrix enumeration across ``multiprocessing`` workers.
Each worker runs the existing :class:`~repro.search.driver.SearchDriver`
loop over one matrix at a time — the *identical* per-matrix code path,
reached through ``matrix_indices``-filtered :class:`BaselineSource` /
:class:`SynthesisSource` streams — while publishing incumbent costs through
a :class:`SharedWatermark` (one ``multiprocessing.Value`` per matrix plus a
global one, mirroring :class:`~repro.search.source.Watermark` semantics), so
one shard's good plan bounds every other shard's budgeted search.

Work distribution is a :class:`PlacementLedger`: every matrix index lives in
one shared claim table, each shard owns a round-robin "home" slice, and a
shard that exhausts its home slice *steals* the next unclaimed matrix from
anyone else's — uneven placements (one huge matrix next to many trivial
ones) therefore never strand idle workers.

Equivalence contract (enforced by ``tests/test_search_driver.py`` and the CI
``shard-equivalence`` job): an **exhaustive** sharded search is bit-identical
to ``shards=1`` — same entries in the same order, same predicted floats,
same baselines, same fingerprint-addressed plan — because exhaustive pricing
is a pure per-matrix function and the parent reassembles per-matrix results
in canonical matrix order.  **Budgeted** sharded searches stay lossless for
the best strategy (bounds only ever reject candidates provably worse than an
exactly-priced incumbent) but the ranking tail may differ from serial, which
is exactly why budgeted plans are never service-cached.

Telemetry: each worker records into its own
:class:`~repro.obs.recorder.Recorder`, drains it once, and ships the delta
home; the parent merges the deltas (drain/merge is associative), so
per-shard counters, bound-rejection rates and span trees land in
``PlanOutcome.provenance()`` like any other search.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import queue as queue_module
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.errors import SearchError
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    Stopwatch,
    current_trace_context,
    get_recorder,
)
from repro.query import PlanQuery
from repro.search.driver import SearchDriver, SearchReport, SearchResult, note_sharing
from repro.search.source import (
    ROLE_BASELINE,
    ROLE_SEED,
    BaselineSource,
    CandidateSource,
    SearchSpace,
    SynthesisSource,
    default_sources,
)
from repro.synthesis.pipeline import enumerate_search_matrices
from repro.synthesis.pruning import SearchStatistics
from repro.topology.topology import MachineTopology

__all__ = ["PlacementLedger", "SharedWatermark", "ShardedSearchDriver"]

logger = logging.getLogger(__name__)

# How long the parent waits between liveness checks while collecting worker
# messages, and how long a worker gets to exit after its final message.
_POLL_SECONDS = 0.25
_JOIN_SECONDS = 10.0


class SharedWatermark:
    """A cross-process incumbent: one value per matrix plus the global best.

    Mirrors :class:`~repro.search.source.Watermark` semantics — starts at
    infinity, only ever lowers, ``update`` reports improvement — over
    ``multiprocessing`` shared memory so every shard prices against the
    freshest incumbent any shard has found.  :meth:`matrix_view` binds a
    matrix index: the view's ``update`` publishes to both that matrix's slot
    and the global value, while its ``seconds`` reads the *global* incumbent
    (the legal bound for rejecting any candidate anywhere).
    """

    def __init__(self, num_matrices: int, ctx=None) -> None:
        ctx = ctx if ctx is not None else multiprocessing.get_context()
        self._lock = ctx.Lock()
        # lock=False: every write happens under self._lock, and reads of one
        # aligned double are atomic on every platform we run on.
        self._best = ctx.Value("d", float("inf"), lock=False)
        self._per_matrix = ctx.Array("d", [float("inf")] * max(num_matrices, 1), lock=False)

    @property
    def seconds(self) -> float:
        return self._best.value

    def matrix_seconds(self, index: int) -> float:
        return self._per_matrix[index]

    def update(self, seconds: float, matrix_index: Optional[int] = None) -> bool:
        """Lower the incumbent(s) to ``seconds`` if better; True on global improvement."""
        with self._lock:
            if matrix_index is not None and seconds < self._per_matrix[matrix_index]:
                self._per_matrix[matrix_index] = seconds
            if seconds < self._best.value:
                self._best.value = seconds
                return True
        return False

    def matrix_view(self, index: int) -> "_MatrixWatermarkView":
        return _MatrixWatermarkView(self, index)


class _MatrixWatermarkView:
    """The Watermark-shaped handle a per-matrix driver run holds."""

    __slots__ = ("_shared", "_index")

    def __init__(self, shared: SharedWatermark, index: int) -> None:
        self._shared = shared
        self._index = index

    @property
    def seconds(self) -> float:
        return self._shared.seconds

    def update(self, seconds: float) -> bool:
        return self._shared.update(seconds, matrix_index=self._index)


class PlacementLedger:
    """The shared placement queue: home slices plus work stealing.

    Matrix index ``i``'s home shard is ``i % shards``.  :meth:`claim` hands a
    shard the first unclaimed index from its home slice; once that slice is
    exhausted the shard steals the first unclaimed index from anywhere —
    dynamic load balancing for uneven placements without ever claiming a
    matrix twice.
    """

    def __init__(self, num_matrices: int, shards: int, ctx=None) -> None:
        if shards < 1:
            raise SearchError(f"shards must be >= 1, got {shards}")
        ctx = ctx if ctx is not None else multiprocessing.get_context()
        self.num_matrices = num_matrices
        self.shards = shards
        self._lock = ctx.Lock()
        self._claimed = ctx.Array("b", [0] * max(num_matrices, 1), lock=False)

    def claim(self, shard: int) -> Optional[Tuple[int, bool]]:
        """The next matrix index for ``shard``: ``(index, stolen)`` or None."""
        with self._lock:
            for index in range(shard % self.shards, self.num_matrices, self.shards):
                if not self._claimed[index]:
                    self._claimed[index] = 1
                    return index, False
            for index in range(self.num_matrices):
                if not self._claimed[index]:
                    self._claimed[index] = 1
                    return index, True
        return None

    def claimed_count(self) -> int:
        with self._lock:
            return sum(1 for index in range(self.num_matrices) if self._claimed[index])


def _shard_worker(
    shard: int,
    shards: int,
    topology: MachineTopology,
    cost_model: CostModel,
    query: PlanQuery,
    ledger: PlacementLedger,
    watermark: SharedWatermark,
    budget_counter,
    deadline: Optional[float],
    telemetry_enabled: bool,
    parent_ctx: Optional[Tuple[str, str]],
    channel,
) -> None:
    """One shard: claim matrices, run the serial driver on each, ship results.

    Every message on ``channel`` is a tuple tagged ``"matrix"`` (one
    per-matrix :class:`SearchResult` payload), ``"done"`` (the shard summary
    plus its drained telemetry delta) or ``"error"`` (a formatted traceback).
    """
    try:
        recorder = Recorder() if telemetry_enabled else NULL_RECORDER
        simulator = ProgramSimulator(topology, cost_model, recorder=recorder)
        driver = SearchDriver(
            topology, cost_model, simulator=simulator, recorder=recorder
        )
        steals = 0
        claimed: List[int] = []
        watch = Stopwatch()
        cpu_start = time.process_time()
        with watch, recorder.span("search.shard", _parent=parent_ctx, shard=shard):
            while True:
                claim = ledger.claim(shard)
                if claim is None:
                    break
                index, stolen = claim
                steals += int(stolen)
                claimed.append(index)
                sub_query, search_enabled = _matrix_budget(
                    query, budget_counter, deadline
                )
                sources: List[CandidateSource] = [
                    BaselineSource(matrix_indices=(index,))
                ]
                if search_enabled:
                    sources.append(SynthesisSource(matrix_indices=(index,)))
                space = SearchSpace(topology=topology, cost_model=cost_model, query=sub_query)
                result = driver.run(
                    space, sources=sources, watermark=watermark.matrix_view(index)
                )
                if not search_enabled:
                    # The search stream was cut before this matrix: surface
                    # the same stop flags the serial driver would have set.
                    result.report.budget_stopped = budget_counter is not None
                    result.report.time_stopped = (
                        deadline is not None and time.time() >= deadline
                    )
                elif budget_counter is not None:
                    with budget_counter.get_lock():
                        budget_counter.value += result.report.considered
                channel.put(("matrix", shard, index, _matrix_payload(result)))
        summary = {
            "shard": shard,
            "matrices": claimed,
            "steals": steals,
            "seconds": watch.seconds,
            # Process CPU time: the shard's actual work, independent of how
            # many cores the machine had to run the shards on — what the
            # sharding benchmark's achievable-speedup gate is computed from.
            "cpu_seconds": time.process_time() - cpu_start,
            "profile_hits": simulator.profile_hits,
            "profile_misses": simulator.profile_misses,
        }
        delta = recorder.drain() if recorder.enabled else None
        channel.put(("done", shard, summary, delta))
    except BaseException:
        channel.put(("error", shard, traceback.format_exc(), None))


def _matrix_budget(
    query: PlanQuery, budget_counter, deadline: Optional[float]
) -> Tuple[PlanQuery, bool]:
    """The per-matrix query under the *remaining* shared search budget.

    Returns ``(sub_query, search_enabled)``.  Budget accounting is
    cooperative: each shard reads the remaining allowance at claim time and
    deducts what it actually considered afterwards, so concurrent shards can
    overshoot the global budget by at most one matrix's entries each —
    budgeted sharded searches are approximate by design (and never cached).
    """
    replacements: Dict[str, Any] = {}
    if budget_counter is not None:
        with budget_counter.get_lock():
            spent = budget_counter.value
        remaining = query.max_candidates - spent
        if remaining <= 0:
            return query, False
        replacements["max_candidates"] = remaining
    if deadline is not None:
        remaining_s = deadline - time.time()
        if remaining_s <= 0:
            return query, False
        replacements["time_budget_s"] = remaining_s
    if replacements:
        return dataclasses.replace(query, **replacements), True
    return query, True


def _matrix_payload(result: SearchResult) -> Tuple:
    """What one per-matrix run ships home (pickled as one message, so the
    entry→candidate object identity within the matrix survives the hop)."""
    return (
        result.entries,
        result.predicted,
        result.candidates,
        result.baselines,
        result.report,
        result.statistics,
        result.synthesis_seconds,
        result.evaluation_seconds,
    )


class ShardedSearchDriver:
    """Drop-in :class:`SearchDriver` running the search across processes.

    Same ``run(space, sources) -> SearchResult`` surface.  Seeds
    (``ROLE_SEED`` sources, e.g. :class:`~repro.search.PinnedPlanSource`)
    are priced in the parent first so the shared incumbent starts warm;
    baseline and synthesis streams must be the stock sources — they are
    re-instantiated per matrix inside each worker, which is what makes the
    sharded stream provably the serial stream reordered by matrix.

    ``shards`` is the *requested* width; the effective width is capped at
    the matrix count, and a one-matrix (or ``shards=1``) search falls back
    to the serial driver outright.
    """

    def __init__(
        self,
        topology: MachineTopology,
        cost_model: CostModel,
        shards: int,
        simulator: Optional[ProgramSimulator] = None,
        recorder=None,
    ) -> None:
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise SearchError(f"shards must be a positive integer, got {shards!r}")
        self.topology = topology
        self.cost_model = cost_model
        self.shards = shards
        self.simulator = simulator
        self.recorder = recorder if recorder is not None else get_recorder()

    # ------------------------------------------------------------------ #
    def run(
        self,
        space: SearchSpace,
        sources: Optional[Sequence[CandidateSource]] = None,
    ) -> SearchResult:
        source_list = list(sources) if sources is not None else default_sources()
        seed_sources, shardable = _split_sources(source_list)

        query = space.query
        matrices = enumerate_search_matrices(
            self.topology.hierarchy, query.axes, query.request, query.max_matrices
        )
        effective = min(self.shards, len(matrices))
        if effective <= 1:
            return SearchDriver(
                self.topology,
                self.cost_model,
                simulator=self.simulator,
                recorder=self.recorder,
            ).run(space, sources=source_list)

        with self.recorder.span(
            "search.run", budgeted=query.has_search_budget, shards=effective
        ) as root:
            parent_ctx = (
                (root.trace_id, root.span_id)
                if root.trace_id is not None
                else current_trace_context()
            )
            result = self._run_sharded(
                space, source_list, seed_sources, matrices, effective, parent_ctx
            )
            if self.recorder.enabled:
                note_sharing(root, result.candidates)
            return result

    # ------------------------------------------------------------------ #
    def _run_sharded(
        self,
        space: SearchSpace,
        source_list: List[CandidateSource],
        seed_sources: List[CandidateSource],
        matrices: Sequence,
        effective: int,
        parent_ctx: Optional[Tuple[str, str]],
    ) -> SearchResult:
        query = space.query
        ctx = multiprocessing.get_context()
        watermark = SharedWatermark(len(matrices), ctx)
        ledger = PlacementLedger(len(matrices), effective, ctx)
        report = SearchReport(
            sources=[source.name for source in source_list],
            budgeted=query.has_search_budget,
            shards=effective,
        )

        # Seeds are priced in the parent before any worker starts, so every
        # shard's very first bound check already races a warm incumbent —
        # the same ordering the serial driver guarantees (seed sources come
        # before the synthesis stream).  As in the serial driver, seeds only
        # lower the shared watermark under a search budget: exhaustive
        # sharded plans must stay bit-identical to unseeded serial ones.
        start = time.perf_counter()
        incumbent_value = float("inf")
        incumbent_at: Optional[float] = None
        incumbent_seeded = False

        def note_price(seconds: float, seeded: bool = False) -> None:
            nonlocal incumbent_value, incumbent_at, incumbent_seeded
            if seconds < incumbent_value:
                incumbent_value = seconds
                incumbent_at = time.perf_counter() - start
                incumbent_seeded = seeded

        seed_watch = Stopwatch()
        if seed_sources:
            simulator = (
                self.simulator
                if self.simulator is not None
                else ProgramSimulator(self.topology, self.cost_model)
            )
            with seed_watch:
                for source in seed_sources:
                    for entry in source.entries(space, watermark, report):
                        report.seeds += 1
                        program = entry.lowered
                        seconds = (
                            0.0
                            if program.num_steps == 0
                            else simulator.simulate(
                                program, query.bytes_per_device, query.algorithm
                            ).total_seconds
                        )
                        note_price(seconds, seeded=True)
                        if query.has_search_budget and watermark.update(seconds):
                            report.watermark_updates += 1

        budget_counter = (
            ctx.Value("l", 0) if query.max_candidates is not None else None
        )
        deadline = (
            time.time() + query.time_budget_s
            if query.time_budget_s is not None
            else None
        )
        channel = ctx.Queue()
        workers = [
            ctx.Process(
                target=_shard_worker,
                name=f"repro-search-shard-{shard}",
                args=(
                    shard,
                    effective,
                    self.topology,
                    self.cost_model,
                    query,
                    ledger,
                    watermark,
                    budget_counter,
                    deadline,
                    self.recorder.enabled,
                    parent_ctx,
                    channel,
                ),
                daemon=True,
            )
            for shard in range(effective)
        ]
        for worker in workers:
            worker.start()

        per_matrix: Dict[int, Tuple] = {}
        summaries: List[Dict[str, Any]] = []
        deltas = []
        try:
            pending = set(range(effective))
            while pending:
                try:
                    message = channel.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    _check_liveness(workers, pending)
                    continue
                kind, shard = message[0], message[1]
                if kind == "matrix":
                    per_matrix[message[2]] = message[3]
                    # Incumbent timing is a parent-side wall-clock fact: a
                    # matrix's best price "arrives" when its message does.
                    matrix_predicted = message[3][1]
                    if matrix_predicted:
                        note_price(min(matrix_predicted))
                elif kind == "done":
                    summaries.append(message[2])
                    if message[3] is not None:
                        deltas.append(message[3])
                    pending.discard(shard)
                else:  # "error"
                    raise SearchError(
                        f"search shard {shard} failed:\n{message[2]}"
                    )
        except BaseException:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            raise
        finally:
            for worker in workers:
                worker.join(timeout=_JOIN_SECONDS)
            channel.close()

        for delta in deltas:
            self.recorder.merge(delta)
        report.time_to_incumbent_s = incumbent_at
        report.seeded_incumbent = incumbent_at is not None and incumbent_seeded
        return self._assemble(
            space, report, watermark, per_matrix, summaries, seed_watch.seconds
        )

    # ------------------------------------------------------------------ #
    def _assemble(
        self,
        space: SearchSpace,
        report: SearchReport,
        watermark: SharedWatermark,
        per_matrix: Dict[int, Tuple],
        summaries: List[Dict[str, Any]],
        seed_seconds: float,
    ) -> SearchResult:
        """Reassemble per-matrix results in canonical matrix order.

        Concatenating the per-matrix entry streams in enumeration order *is*
        the serial stream: each worker ran the identical per-matrix sources,
        and exhaustive pricing never depends on what other matrices did.
        """
        entries, predicted, candidates = [], [], []
        baselines: Dict[str, float] = {}
        statistics = SearchStatistics()
        synthesis_seconds = seed_seconds
        evaluation_seconds = 0.0
        for index in sorted(per_matrix):
            (
                m_entries,
                m_predicted,
                m_candidates,
                m_baselines,
                m_report,
                m_statistics,
                m_synthesis,
                m_evaluation,
            ) = per_matrix[index]
            entries.extend(m_entries)
            predicted.extend(m_predicted)
            candidates.extend(m_candidates)
            for tag, seconds in m_baselines.items():
                known = baselines.get(tag)
                if known is None or seconds < known:
                    baselines[tag] = seconds
            statistics.merge(m_statistics)
            synthesis_seconds += m_synthesis
            evaluation_seconds += m_evaluation
            report.considered += m_report.considered
            report.bound_rejected += m_report.bound_rejected
            report.placements_pruned += m_report.placements_pruned
            report.baseline_entries += m_report.baseline_entries
            report.watermark_updates += m_report.watermark_updates
            report.batch_prices += m_report.batch_prices
            report.batch_payloads += m_report.batch_payloads
            report.semantics_reused += m_report.semantics_reused
            report.budget_stopped = report.budget_stopped or m_report.budget_stopped
            report.time_stopped = report.time_stopped or m_report.time_stopped

        report.ranked = len(entries)
        report.matrices_reached = len(candidates)
        report.shard_steals = sum(summary["steals"] for summary in summaries)
        report.shard_stats = sorted(summaries, key=lambda s: s["shard"])
        if watermark.seconds < float("inf"):
            report.incumbent_seconds = watermark.seconds
        elif predicted:
            report.incumbent_seconds = min(predicted)

        self.recorder.count("search.shard_steals", report.shard_steals)
        logger.debug(
            "sharded search complete: %d shards, %d matrices, %d steals, "
            "%d considered, %d ranked",
            report.shards,
            report.matrices_reached,
            report.shard_steals,
            report.considered,
            report.ranked,
        )
        return SearchResult(
            entries=entries,
            predicted=predicted,
            candidates=candidates,
            baselines=baselines,
            report=report,
            statistics=statistics,
            synthesis_seconds=synthesis_seconds,
            evaluation_seconds=evaluation_seconds,
        )


def _split_sources(
    source_list: Sequence[CandidateSource],
) -> Tuple[List[CandidateSource], List[CandidateSource]]:
    """(seed sources, shardable sources); reject streams we cannot partition.

    Only the stock :class:`BaselineSource` / :class:`SynthesisSource` can be
    re-instantiated per matrix inside a worker; a custom search stream has no
    matrix filter, so sharding it would silently change what the query means.
    """
    seeds: List[CandidateSource] = []
    shardable: List[CandidateSource] = []
    for source in source_list:
        if source.role == ROLE_SEED:
            seeds.append(source)
        elif source.role == ROLE_BASELINE:
            if type(source) is not BaselineSource or source.matrix_indices is not None:
                raise SearchError(
                    f"cannot shard baseline source {source.name!r}: only the "
                    "stock BaselineSource can be partitioned by matrix"
                )
            shardable.append(source)
        else:
            if type(source) is not SynthesisSource or source.matrix_indices is not None:
                raise SearchError(
                    f"cannot shard search source {source.name!r}: only the "
                    "stock SynthesisSource can be partitioned by matrix "
                    "(run custom sources with shards=1)"
                )
            shardable.append(source)
    return seeds, shardable


def _check_liveness(workers: Sequence, pending: set) -> None:
    """Raise if any still-pending shard's process died without a message."""
    for shard in list(pending):
        worker = workers[shard]
        if not worker.is_alive() and worker.exitcode not in (None, 0):
            raise SearchError(
                f"search shard {shard} died with exit code {worker.exitcode} "
                "before reporting results"
            )

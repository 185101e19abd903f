"""Candidate sources: lazy streams of strategy entries for the search driver.

The paper's planner searches a combinatorial space of parallelism placements
x synthesized reduction programs.  A :class:`CandidateSource` is one lazily
enumerated slice of that space: it yields :class:`StrategyEntry` objects —
(placement candidate, lowered program) pairs awaiting pricing — one at a
time, so a driver operating under a search budget can stop pulling and never
pay for the candidates it does not look at.

Three sources ship with the package:

* :class:`SynthesisSource` — the full P² pipeline
  (:func:`repro.synthesis.pipeline.iter_placement_candidates`), one placement
  synthesized per pull.  This is the stream the ranked plan is built from.
* :class:`BaselineSource` — the paper's comparison baselines (flat per-group
  ring AllReduce, Reduce-AllReduce-Broadcast, BlueConnect's
  ReduceScatter-AllReduce-AllGather) built on every placement.  They flow
  through the same pricing path as synthesized candidates, so every
  :class:`~repro.query.PlanOutcome` reports a speedup over each baseline at
  its best placement — not just over the default AllReduce.
* :class:`PinnedPlanSource` — replays strategies from a previous plan for
  the same query shape first, seeding the branch-and-bound incumbent before
  any synthesis happens.

A custom source is any object with ``name``, ``role`` and an
``entries(space, watermark, report)`` generator; pass it to
:func:`repro.api.compute_plan` via ``sources=`` (see the README's "How search
scales").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Iterator, List, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.baselines.hierarchical import reduce_allreduce_broadcast
from repro.cost.model import CostModel
from repro.errors import SynthesisError
from repro.hierarchy.parallelism import ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.query import PlanQuery
from repro.search.bounds import placement_lower_bound
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import LoweredProgram, forget_transitions
from repro.synthesis.pipeline import (
    PlacementCandidate,
    enumerate_search_matrices,
    iter_placement_candidates,
)
from repro.topology.topology import MachineTopology
from repro.utils.memo import BoundedMemo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; see repro.api
    from repro.search.driver import SearchReport

logger = logging.getLogger(__name__)

__all__ = [
    "ROLE_SEARCH",
    "ROLE_BASELINE",
    "ROLE_SEED",
    "BASELINE_ALL_REDUCE",
    "BASELINE_HIERARCHICAL",
    "BASELINE_BLUECONNECT",
    "StrategyEntry",
    "SHAPE_MEMO_SHAPES",
    "ShapeMemo",
    "SearchSpace",
    "Watermark",
    "CandidateSource",
    "SynthesisSource",
    "BaselineSource",
    "PinnedPlanSource",
    "default_sources",
]

# How the driver treats a source's entries:
#   search   — priced entries become ranked strategies and lower the incumbent.
#   baseline — priced as reference points (per-baseline speedups); never
#              ranked and never allowed to lower the incumbent, because a
#              baseline outside the query's program-size limit is not in the
#              search space and seeding from it would break losslessness.
#   seed     — priced to lower the incumbent early (pinned replays); never
#              ranked.  The caller asserts seeds lie inside the search space.
ROLE_SEARCH = "search"
ROLE_BASELINE = "baseline"
ROLE_SEED = "seed"

BASELINE_ALL_REDUCE = "all_reduce"
BASELINE_HIERARCHICAL = "hierarchical"
BASELINE_BLUECONNECT = "blueconnect"

# Distinct shapes one ShapeMemo keeps.
SHAPE_MEMO_SHAPES = 32


@dataclass(frozen=True)
class StrategyEntry:
    """One (candidate, lowered program) pair awaiting cost evaluation.

    The entry stream is the contract between synthesis and ranking: the
    serial driver, the sharded driver (:mod:`repro.search.sharded`) and the
    planning service all see the same entries in the same order, so a
    stable sort over the predicted times yields the identical ranking no
    matter who computed them.  ``tag`` carries the baseline name for entries
    produced by a :class:`BaselineSource` and is ``None`` elsewhere.
    """

    candidate: PlacementCandidate
    lowered: LoweredProgram
    mnemonic: str
    is_default_all_reduce: bool
    size: int = 1  # DSL program size (the baseline AllReduce counts as 1)
    tag: Optional[str] = None


class ShapeMemo(BoundedMemo):
    """The complete entry streams of the shapes a long-lived planner has searched.

    What :class:`SynthesisSource` and :class:`BaselineSource` yield depends
    only on a query's *shape* — system hierarchy, axes, reduction request,
    size limits — never on ``bytes_per_device`` or
    ``algorithm``, which only the pricing that follows reads.  A planner that
    outlives its requests keeps, per shape, the entries each source yielded on
    one complete exhaustive run — the very programs that were lowered and
    validated on every device group — and answers a later query of that shape
    by pricing, ranking and serializing them.  A :class:`BoundedMemo` of
    :data:`SHAPE_MEMO_SHAPES` shapes, each mapping a source name to its entries;
    ``hits`` / ``misses`` count source lookups, ``evicted`` shapes.
    """

    def __init__(self) -> None:
        super().__init__("search.shape_memo", SHAPE_MEMO_SHAPES)

    def recall(self, shape: Tuple, source: str) -> Optional[Tuple[StrategyEntry, ...]]:
        """``source``'s entries for ``shape``; a held shape without them is a miss."""
        if source in (self.peek(shape) or ()):
            return self.get(shape)[source]
        self.misses += 1
        return None

    def remember(self, shape: Tuple, source: str, entries: Tuple[StrategyEntry, ...]) -> None:
        self.put(shape, {**(self.peek(shape) or {}), source: entries})


@dataclass(frozen=True)
class SearchSpace:
    """The fixed inputs of one streaming search (everything sources consume).

    ``shapes`` is the caller's :class:`ShapeMemo`; a one-off search or a shard worker has none.
    """

    topology: MachineTopology
    cost_model: CostModel
    query: PlanQuery
    shapes: Optional[ShapeMemo] = field(default=None, compare=False, repr=False)


class Watermark:
    """The shared branch-and-bound incumbent: the best exact time seen so far.

    Starts at infinity; the driver lowers it as in-space candidates are
    priced.  Sources may read it to skip work that provably cannot matter
    (e.g. :class:`SynthesisSource` skips synthesizing a whole placement when
    the placement's closed-form lower bound already exceeds it), and a
    budgeted search re-reads it before pricing each entry.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float = float("inf")) -> None:
        self.seconds = seconds

    def update(self, seconds: float) -> bool:
        """Lower the incumbent to ``seconds`` if better; True when it improved."""
        if seconds < self.seconds:
            self.seconds = seconds
            return True
        return False


@runtime_checkable
class CandidateSource(Protocol):
    """Anything that lazily yields strategy entries into the search driver.

    ``role`` must be one of :data:`ROLE_SEARCH`, :data:`ROLE_BASELINE` or
    :data:`ROLE_SEED` (see the module docstring for what each means to the
    driver).  ``entries`` must be lazy: work for an entry should happen when
    it is pulled, so budgets can cut enumeration short.
    """

    name: str
    role: str

    def entries(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        """Yield entries for ``space``, lazily."""
        ...


def _through_shape_memo(
    source, stream, space: SearchSpace, watermark: Watermark, report: "SearchReport"
) -> Iterator[StrategyEntry]:
    """``stream(space, watermark, report)``, from ``space.shapes`` once the shape is known.

    Only a complete exhaustive stream over every matrix is a function of the
    shape alone, so a budgeted or sharded query, a source restricted to some
    matrices and a finite watermark (it prunes placements) neither read nor
    write the memo, and a stream abandoned or failed part-way stores nothing.
    """
    query, memo = space.query, space.shapes
    if (memo is None or query.has_search_budget or query.shards > 1
            or source.matrix_indices is not None or watermark.seconds != float("inf")):
        yield from stream(space, watermark, report)
        return
    # request.axes, as in the canonical query.
    shape = (space.topology.hierarchy, query.axes, query.request.axes, query.max_program_size,
             query.max_matrices)
    entries = memo.recall(shape, source.name)
    if entries is None:
        fresh = []
        for entry in stream(space, watermark, report):
            fresh.append(entry)
            yield entry
        if watermark.seconds == float("inf"):
            memo.remember(shape, source.name, tuple(fresh))
    else:
        report.reused_streams += 1
        yield from entries


@dataclass
class SynthesisSource:
    """The P² synthesis pipeline as a lazy entry stream.

    For each parallelism matrix it yields the default AllReduce entry first
    and then every synthesized program, in exactly the order the eager
    pipeline (``tests/oracles/pipeline.py``) produced — fully
    consuming this source reproduces the historical entry list bit for bit.
    When the incumbent watermark is finite, whole placements whose
    closed-form lower bound
    (:func:`repro.search.bounds.placement_lower_bound`) already exceeds it
    are skipped before their synthesis starts.

    Granularity follows the query: exhaustive queries synthesize one full
    placement per pull (the single-pass search), while budgeted queries use
    iterative-deepening passes
    (:meth:`repro.synthesis.synthesizer.Synthesizer.iter_synthesize_sizes`)
    so that abandoning the stream mid-placement also abandons the deepest —
    exponentially dominant — program sizes.  Both paths produce the same
    entries in the same ``(size, signature)`` order.

    ``matrix_indices`` restricts the stream to a subset of the canonical
    matrix enumeration (by index, in enumeration order) — the unit of work a
    shard claims in :mod:`repro.search.sharded`.  ``None`` (the default)
    streams every matrix.
    """

    name: str = "synthesis"
    matrix_indices: Optional[Sequence[int]] = None
    role: str = field(default=ROLE_SEARCH, init=False)

    def entries(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        if space.query.has_search_budget:
            return self._entries_by_size(space, watermark, report)
        return _through_shape_memo(self, self._entries_by_placement, space, watermark, report)

    # ------------------------------------------------------------------ #
    def _entries_by_placement(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        query = space.query
        for candidate in iter_placement_candidates(
            space.topology.hierarchy,
            query.axes,
            query.request,
            max_program_size=query.max_program_size,
            max_matrices=query.max_matrices,
            matrix_indices=self.matrix_indices,
        ):
            if self._placement_pruned(candidate.placement, space, watermark, report):
                continue
            baseline = default_all_reduce(candidate.placement, query.request)
            yield StrategyEntry(candidate, baseline, "AR", True, 1)
            for program in candidate.programs:
                if program.is_default_all_reduce:
                    continue
                yield StrategyEntry(
                    candidate, program.lowered, program.mnemonic, False, program.size
                )

    def _entries_by_size(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        import time

        from repro.synthesis.pipeline import lower_program_candidate
        from repro.synthesis.synthesizer import SynthesisResult, Synthesizer
        from repro.synthesis.pruning import SearchStatistics

        query = space.query
        matrices = enumerate_search_matrices(
            space.topology.hierarchy, query.axes, query.request, query.max_matrices
        )
        if self.matrix_indices is not None:
            wanted = set(self.matrix_indices)
            matrices = [m for i, m in enumerate(matrices) if i in wanted]
        synthesizer = Synthesizer(max_program_size=query.max_program_size)
        for matrix in matrices:
            placement = DevicePlacement(matrix)
            if self._placement_pruned(placement, space, watermark, report):
                continue
            synthesis_hierarchy = build_synthesis_hierarchy(matrix, query.request)
            statistics = SearchStatistics()
            result = SynthesisResult(
                hierarchy=synthesis_hierarchy,
                programs=[],
                statistics=statistics,
                elapsed_seconds=0.0,
                max_program_size=query.max_program_size,
            )
            candidate = PlacementCandidate(
                matrix=matrix,
                placement=placement,
                hierarchy=synthesis_hierarchy,
                synthesis=result,
                programs=[],
            )
            yield StrategyEntry(
                candidate, default_all_reduce(placement, query.request), "AR", True, 1
            )
            passes = synthesizer.iter_synthesize_sizes(
                synthesis_hierarchy, statistics=statistics
            )
            expanded_before = synthesizer.contexts_expanded
            try:
                while True:
                    start = time.perf_counter()
                    item = next(passes, None)
                    if item is None:
                        break
                    _, batch = item
                    entries: List[StrategyEntry] = []
                    for synthesized in batch:
                        program = lower_program_candidate(
                            synthesized, synthesis_hierarchy, placement, query.request
                        )
                        result.programs.append(synthesized)
                        candidate.programs.append(program)
                        if program.is_default_all_reduce:
                            continue
                        entries.append(
                            StrategyEntry(
                                candidate,
                                program.lowered,
                                program.mnemonic,
                                False,
                                program.size,
                            )
                        )
                    elapsed = time.perf_counter() - start
                    candidate.synthesis_seconds += elapsed
                    result.elapsed_seconds += elapsed
                    for entry in entries:
                        yield entry
            finally:
                # Also when a budget abandons the stream mid-matrix: the
                # transition table must not outlive the search on a candidate.
                result.contexts_expanded = synthesizer.contexts_expanded - expanded_before
                candidate.semantic_steps, candidate.semantic_transitions = (
                    forget_transitions(placement)
                )

    @staticmethod
    def _placement_pruned(
        placement: DevicePlacement,
        space: SearchSpace,
        watermark: Watermark,
        report: "SearchReport",
    ) -> bool:
        if watermark.seconds == float("inf"):
            return False
        bound = placement_lower_bound(
            placement, space.query.request, space.topology, space.cost_model
        )
        if bound > watermark.seconds:
            report.placements_pruned += 1
            # isEnabledFor guard: rendering the matrix is far more expensive
            # than the pruning decision itself.
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "pruned placement %s: lower bound %.6fs > incumbent %.6fs",
                    placement.matrix.describe(),
                    bound,
                    watermark.seconds,
                )
            return True
        return False


@dataclass
class BaselineSource:
    """The paper's comparison baselines as first-class planning candidates.

    On every placement it yields the flat per-group ring AllReduce and — when
    the placement's synthesis hierarchy has a non-trivial local/global split —
    the Reduce-AllReduce-Broadcast and BlueConnect strategies (paper Figure
    10).  Entries are tagged with their baseline name so the driver can
    report each baseline's best-placement time on the
    :class:`~repro.api.OptimizationPlan`.

    ``matrix_indices`` restricts the stream to a subset of the canonical
    matrix enumeration, exactly like :class:`SynthesisSource`'s.
    """

    name: str = "baselines"
    matrix_indices: Optional[Sequence[int]] = None
    role: str = field(default=ROLE_BASELINE, init=False)

    def entries(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        return _through_shape_memo(self, self._entries_by_placement, space, watermark, report)

    def _entries_by_placement(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        query = space.query
        matrices = enumerate_search_matrices(
            space.topology.hierarchy, query.axes, query.request, query.max_matrices
        )
        if self.matrix_indices is not None:
            wanted = set(self.matrix_indices)
            matrices = [m for i, m in enumerate(matrices) if i in wanted]
        for matrix in matrices:
            placement = DevicePlacement(matrix)
            hierarchy = build_synthesis_hierarchy(matrix, query.request)
            candidate = PlacementCandidate(
                matrix=matrix,
                placement=placement,
                hierarchy=hierarchy,
                synthesis=None,
                programs=[],
            )
            yield StrategyEntry(
                candidate,
                default_all_reduce(placement, query.request),
                "AR",
                True,
                1,
                tag=BASELINE_ALL_REDUCE,
            )
            try:
                hierarchical = reduce_allreduce_broadcast(hierarchy, placement)
                blue = blueconnect(hierarchy, placement)
            except SynthesisError:
                # No non-trivial local/global split on this placement: the
                # hierarchical baselines degenerate to the AllReduce above.
                continue
            yield StrategyEntry(
                candidate, hierarchical, "R-AR-B", False, 3, tag=BASELINE_HIERARCHICAL
            )
            yield StrategyEntry(
                candidate, blue, "RS-AR-AG", False, 3, tag=BASELINE_BLUECONNECT
            )


@dataclass
class PinnedPlanSource:
    """Replay known-good strategies first, seeding the incumbent.

    ``strategies`` usually comes from a previous
    :class:`~repro.api.OptimizationPlan` for the *same* query shape (pass a
    plan and the top ``top_k`` strategies are replayed).  Seeding lets
    branch-and-bound start pruning from the first synthesized candidate
    instead of warming up on the new stream.

    Losslessness contract: a seed may lower the incumbent, so it must be a
    strategy the current search space can also reach — the source skips any
    strategy whose device count does not match the topology, whose program
    size exceeds the query's ``max_program_size``, whose matrix was built
    for different parallelism axes, or (when the pinned plan's reduction
    request is known, as it is via :meth:`from_plan`) whose plan answered a
    different reduction.  A foreign-reduction seed would lower the incumbent
    to a time the current space cannot reach and make pruning lossy, so it
    is dropped wholesale rather than trusted.
    """

    strategies: Sequence = ()
    top_k: int = 1
    # The reduction the pinned strategies were planned for, when known; a
    # mismatch with the query's request disqualifies every seed.
    request: Optional[ReductionRequest] = None
    name: str = "pinned"
    role: str = field(default=ROLE_SEED, init=False)

    @classmethod
    def from_plan(cls, plan, top_k: int = 1) -> "PinnedPlanSource":
        """Pin the top ``top_k`` ranked strategies of an existing plan."""
        return cls(strategies=tuple(plan.strategies), top_k=top_k, request=plan.request)

    def entries(
        self, space: SearchSpace, watermark: Watermark, report: "SearchReport"
    ) -> Iterator[StrategyEntry]:
        query = space.query
        if self.request is not None and self.request != query.request:
            return
        yielded = 0
        for strategy in self.strategies:
            if yielded >= max(self.top_k, 0):
                break
            program = strategy.program
            if program.num_devices != space.topology.num_devices:
                continue
            size = strategy.size if strategy.size is not None else program.num_steps
            if size > query.max_program_size:
                continue
            if strategy.candidate.matrix.axes != query.axes:
                continue
            yielded += 1
            yield StrategyEntry(
                candidate=strategy.candidate,
                lowered=program,
                mnemonic=strategy.mnemonic,
                is_default_all_reduce=strategy.is_default_all_reduce,
                size=size,
            )


def default_sources() -> List[CandidateSource]:
    """The planner's default source list: baselines first, then synthesis.

    Baselines come first so their reference prices exist before any ranking
    decision; the synthesis stream then provides every ranked strategy.
    """
    return [BaselineSource(), SynthesisSource()]

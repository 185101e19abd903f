"""Streaming candidate-source search: lazy enumeration plus branch-and-bound.

The architectural seam between synthesis and ranking: candidate sources
(:mod:`repro.search.source`) lazily yield strategy entries, closed-form
lower bounds (:mod:`repro.search.bounds`) let the driver discard provably
non-optimal candidates, and the :class:`SearchDriver`
(:mod:`repro.search.driver`) prices the stream incrementally against an
incumbent watermark under an optional :class:`~repro.query.PlanQuery`
search budget.  ``repro.api.compute_plan`` is built on this package; new
ways of proposing candidates (sharded searches, multi-backend schedules,
replayed plans) plug in as additional :class:`CandidateSource` objects.
"""

from repro.search.bounds import (
    min_link_latency,
    placement_lower_bound,
    program_lower_bound,
)
from repro.search.driver import SearchDriver, SearchReport, SearchResult
from repro.search.sharded import (
    PlacementLedger,
    ShardedSearchDriver,
    SharedWatermark,
)
from repro.search.source import (
    BASELINE_ALL_REDUCE,
    BASELINE_BLUECONNECT,
    BASELINE_HIERARCHICAL,
    ROLE_BASELINE,
    ROLE_SEARCH,
    ROLE_SEED,
    SHAPE_MEMO_SHAPES,
    BaselineSource,
    CandidateSource,
    PinnedPlanSource,
    SearchSpace,
    ShapeMemo,
    StrategyEntry,
    SynthesisSource,
    Watermark,
    default_sources,
)

__all__ = [
    "BASELINE_ALL_REDUCE",
    "BASELINE_BLUECONNECT",
    "BASELINE_HIERARCHICAL",
    "ROLE_BASELINE",
    "ROLE_SEARCH",
    "ROLE_SEED",
    "SHAPE_MEMO_SHAPES",
    "BaselineSource",
    "CandidateSource",
    "PinnedPlanSource",
    "PlacementLedger",
    "SearchDriver",
    "SearchReport",
    "SearchResult",
    "SearchSpace",
    "ShapeMemo",
    "ShardedSearchDriver",
    "SharedWatermark",
    "StrategyEntry",
    "SynthesisSource",
    "Watermark",
    "default_sources",
    "min_link_latency",
    "placement_lower_bound",
    "program_lower_bound",
]

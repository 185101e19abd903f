"""The planning service: caching and a batch API for P².

The rest of the package computes plans; this subpackage *serves* them:

* :mod:`repro.service.fingerprint` — deterministic, restart-stable hashes of
  (topology, axes, request, payload, algorithm, cost model, limits) queries.
* :mod:`repro.service.cache` — a two-tier plan cache (in-memory LRU over a
  JSON-on-disk store) with hit/miss/eviction statistics.
* :mod:`repro.service.engine` — the :class:`PlanningService` facade tying
  them together, with per-request stats and a deduplicating batch API.

Quickstart::

    >>> from repro.service import PlanningService, PlanCache
    >>> from repro.topology import a100_system
    >>> from repro import ParallelismAxes, ReductionRequest
    >>> service = PlanningService(a100_system(num_nodes=2),
    ...                           cache=PlanCache("~/.cache/repro-plans"))
    ... # doctest: +SKIP
    >>> plan = service.optimize(ParallelismAxes.of(8, 4),
    ...                         ReductionRequest.over(0),
    ...                         bytes_per_device=1 << 26)  # doctest: +SKIP
"""

from repro.query import PlanOutcome, PlanQuery, Planner
from repro.service.cache import CacheStats, PlanCache, plan_from_dict, plan_to_dict
from repro.service.engine import (
    PlanningRequest,
    PlanningResponse,
    PlanningService,
    RequestStats,
)
from repro.service.fingerprint import (
    canonical_plan_query,
    canonical_query,
    canonical_topology,
    plan_query_fingerprint,
    query_fingerprint,
)

__all__ = [
    "PlanningService",
    "PlanningRequest",
    "PlanningResponse",
    "RequestStats",
    "PlanQuery",
    "PlanOutcome",
    "Planner",
    "PlanCache",
    "CacheStats",
    "plan_to_dict",
    "plan_from_dict",
    "plan_query_fingerprint",
    "canonical_plan_query",
    "query_fingerprint",
    "canonical_query",
    "canonical_topology",
]

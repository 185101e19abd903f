"""The planning service: caching and a batch API for P².

The rest of the package computes plans; this subpackage *serves* them:

* :mod:`repro.service.fingerprint` — deterministic, restart-stable hashes of
  (topology, axes, request, payload, algorithm, cost model, limits) queries.
* :mod:`repro.service.cache` — a two-tier plan cache (in-memory LRU over a
  JSON-on-disk store) with hit/miss/eviction statistics.
* :mod:`repro.service.engine` — the :class:`PlanningService` facade tying
  them together, with per-query provenance and a deduplicating batch API.

Quickstart::

    >>> from repro.service import PlanCache, PlanningService, PlanQuery
    >>> from repro.topology import a100_system
    >>> service = PlanningService(a100_system(num_nodes=2),
    ...                           cache=PlanCache("~/.cache/repro-plans"))
    ... # doctest: +SKIP
    >>> outcome = service.plan(PlanQuery((8, 4), (0,), bytes_per_device=1 << 26))
    ... # doctest: +SKIP
    >>> print(outcome.describe())  # doctest: +SKIP
"""

from repro.query import PlanOutcome, PlanQuery, Planner
from repro.service.cache import CacheStats, PlanCache
from repro.service.engine import PlanningService
from repro.service.fingerprint import (
    canonical_plan_query,
    canonical_topology,
    plan_query_fingerprint,
)

__all__ = [
    "PlanningService",
    "PlanQuery",
    "PlanOutcome",
    "Planner",
    "PlanCache",
    "CacheStats",
    "plan_query_fingerprint",
    "canonical_plan_query",
    "canonical_topology",
]

"""The planning service: P² with a plan cache.

:class:`PlanningService` is :class:`repro.api.P2` — the package's one
planner — built with a :class:`~repro.service.cache.PlanCache` by default.
Every query is fingerprinted (:mod:`repro.service.fingerprint`) and answered
from the two-tier cache when possible; cold plans are serialized back into
the cache so subsequent processes warm-start from disk.  A query with
``shards > 1`` partitions its placement space across worker processes
(:mod:`repro.search.sharded`); exhaustive sharded plans are bit-identical to
serial ones, so they share the cache.  Every outcome carries provenance
(fingerprint, cache tier, timing breakdown) so callers can monitor hit rates
and latency without instrumenting the pipeline themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; corpus sits above us
    from repro.corpus.store import PlanCorpus

from repro.api import P2
from repro.cost.model import CostModel
from repro.service.cache import PlanCache
from repro.topology.topology import MachineTopology

__all__ = ["PlanningService"]


class PlanningService(P2):
    """A :class:`~repro.api.P2` that caches: a fresh memory-only
    :class:`PlanCache` when ``cache`` is ``None``.  Pass one with a
    ``directory`` to warm-start across processes."""

    def __init__(
        self,
        topology: MachineTopology,
        cost_model: Optional[CostModel] = None,
        cache: Optional[PlanCache] = None,
        recorder=None,
        corpus: Optional["PlanCorpus"] = None,
    ) -> None:
        super().__init__(
            topology, cost_model, PlanCache() if cache is None else cache, recorder, corpus
        )

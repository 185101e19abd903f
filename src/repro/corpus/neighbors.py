"""Nearest-neighbor lookup over canonical plan-query features.

A corpus record is a useful seed for a query when their search spaces
overlap: identical parallelism axes guarantee the seeded strategies are
reachable placements, and the rest of the canonical
:meth:`~repro.query.PlanQuery.to_dict` features (reduction request,
algorithm, payload) only grade *how strong* the seeded incumbent will be.
Distance is therefore a hard filter followed by a lexicographic rank:

* **hard filter** — the record's planning context (topology + cost model
  digest) must match when both sides carry one, and the axes (sizes *and*
  names) must be exactly the query's.  Budgeted records never enter the
  corpus, so no filter is needed here.
* **rank** — exact-fingerprint matches first (the same query replayed),
  then same-reduction records (their seeds survive
  :class:`~repro.search.PinnedPlanSource`'s wholesale foreign-request
  disqualification), then same-algorithm records, then by payload-band
  distance ``|log2(payload_record / payload_query)|`` (collective cost is
  closer to linear in log-payload than in payload), newest record first
  on ties.

Foreign-request records are deliberately *kept* as candidates with a low
rank rather than filtered: the pinned source itself disqualifies them
wholesale at zero cost, so returning them is harmless, and ranking (not
filtering) keeps this module free of reachability judgments that belong
to the search layer.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Mapping, Optional, Tuple

from repro.corpus.store import CorpusRecord

__all__ = ["nearest_records", "query_distance"]


def _axes_of(query: Mapping[str, Any]) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
    axes = query.get("axes") or {}
    return (
        tuple(int(s) for s in axes.get("sizes") or ()),
        tuple(str(n) for n in axes.get("names") or ()),
    )


def _request_of(query: Mapping[str, Any]) -> Tuple[int, ...]:
    request = query.get("request") or {}
    return tuple(int(a) for a in request.get("axes") or ())


def _payload_of(query: Mapping[str, Any]) -> int:
    return int(query.get("bytes_per_device") or 0)


def query_distance(
    record_query: Mapping[str, Any],
    query: Mapping[str, Any],
    *,
    exact: bool = False,
) -> Tuple[int, int, int, float]:
    """Lexicographic rank of a candidate record against a live query.

    Smaller is nearer.  Components: fingerprint mismatch (``exact`` marks a
    known exact match), reduction-request mismatch, algorithm mismatch,
    payload-band distance in octaves.  Axes are assumed already equal (the
    hard filter in :func:`nearest_records`).
    """
    request_penalty = 0 if _request_of(record_query) == _request_of(query) else 1
    algorithm_penalty = (
        0 if record_query.get("algorithm") == query.get("algorithm") else 1
    )
    record_payload = _payload_of(record_query)
    live_payload = _payload_of(query)
    if record_payload > 0 and live_payload > 0:
        band = abs(math.log2(record_payload / live_payload))
    else:
        band = float("inf")
    return (0 if exact else 1, request_penalty, algorithm_penalty, band)


def nearest_records(
    records: Iterable[CorpusRecord],
    query: Mapping[str, Any],
    *,
    context: Optional[str] = None,
    exact_fingerprint: Optional[str] = None,
    top_k: int = 2,
) -> List[CorpusRecord]:
    """The ``top_k`` nearest corpus records for ``query`` (a canonical dict).

    ``context`` is the live :func:`~repro.corpus.store.context_fingerprint`;
    records carrying a *different* context are excluded (records with no
    context — hand-ingested history — are trusted and rank-ordered like the
    rest).  ``exact_fingerprint`` marks records that answer this very query
    so they sort first.
    """
    if top_k < 1:
        return []
    live_axes = _axes_of(query)
    ranked: List[Tuple[Tuple[int, int, int, float], int, CorpusRecord]] = []
    for record in records:
        if (
            context is not None
            and record.context is not None
            and record.context != context
        ):
            continue
        if _axes_of(record.query) != live_axes:
            continue
        distance = query_distance(
            record.query,
            query,
            exact=exact_fingerprint is not None
            and record.fingerprint == exact_fingerprint,
        )
        # Newest record wins ties: -seq ascends as records age.
        ranked.append((distance, -record.seq, record))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return [record for _, _, record in ranked[:top_k]]

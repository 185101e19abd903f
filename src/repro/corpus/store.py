"""Append-only JSONL plan corpus with dedupe, bounded size and compaction.

A :class:`PlanCorpus` is a directory holding one ``corpus.jsonl`` file.
Each line is a self-contained record — the canonical query dict, the full
serialized plan (:meth:`repro.api.OptimizationPlan.to_dict`, lossless), the
service fingerprint of the query and a *context* fingerprint binding the
record to the (topology, cost model) it was planned under.  Records arrive
from three producers that all speak :class:`~repro.query.PlanOutcome`:
sweep runs (via the service attached by ``planner_factory``), ``serve-batch``
output files (``repro-cli corpus ingest``), and live daemon traffic (the
daemon's service ingests every cold plan it serves).

Two standing rules are enforced at ingest, not trusted to callers:

* **budgeted plans are never stored** — the same invariant that keeps them
  out of the service cache: a budget-truncated ranking is not a
  deterministic function of the query, so replaying it as history would
  seed searches from machine-speed-dependent artifacts;
* **dedupe by (fingerprint, payload)** — re-running a sweep with
  ``--resume``, or re-ingesting an output file, must not grow the corpus:
  an outcome whose fingerprint and payload are already present is dropped.

The file is append-only in steady state; :meth:`PlanCorpus.compact`
rewrites it (write-then-rename, like the plan cache) keeping the newest
record per dedupe key and trimming to ``max_records``.  Ingest
auto-compacts when the record count overflows the bound.  Torn or
malformed lines — a crashed writer's partial flush — and lines whose plan is
in an older :data:`~repro.api.PLAN_FORMAT_VERSION` are skipped on load and
counted (:attr:`PlanCorpus.skipped_lines`), mirroring the sweep checkpoint
reader's tolerance; an old plan is never converted.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.api import PLAN_FORMAT_VERSION, OptimizationPlan
from repro.errors import ReproError, ServiceError
from repro.service.cache import atomic_write_text
from repro.service.fingerprint import canonical_cost_model, canonical_topology

__all__ = [
    "CORPUS_FORMAT_VERSION",
    "CORPUS_FILENAME",
    "CorpusRecord",
    "PlanCorpus",
    "context_fingerprint",
]

logger = logging.getLogger(__name__)

CORPUS_FORMAT_VERSION = 1
CORPUS_FILENAME = "corpus.jsonl"
DEFAULT_MAX_RECORDS = 512


def context_fingerprint(topology, cost_model) -> str:
    """Digest of the planning context a corpus record was produced under.

    Unlike the full query fingerprint this covers *only* the topology and
    cost model, so records for different queries against the same machine
    share it — it is the hard gate nearest-neighbor lookup uses to refuse
    seeds from a corpus directory that mixes deployments.
    """
    canonical = {
        "topology": canonical_topology(topology),
        "cost_model": canonical_cost_model(cost_model),
    }
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusRecord:
    """One persisted planning outcome: canonical query + lossless plan."""

    fingerprint: str
    context: Optional[str]
    query: Dict[str, Any]
    plan: Dict[str, Any]
    seq: int

    @property
    def key(self) -> Tuple[str, int]:
        """The dedupe identity: (query fingerprint, payload bytes)."""
        return (self.fingerprint, int(self.query.get("bytes_per_device") or 0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": CORPUS_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "context": self.context,
            "query": self.query,
            "plan": self.plan,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusRecord":
        if data.get("format_version") != CORPUS_FORMAT_VERSION:
            raise ServiceError(
                f"unsupported corpus record version {data.get('format_version')!r}"
            )
        fingerprint = data["fingerprint"]
        query = data["query"]
        plan = data["plan"]
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ServiceError("corpus record carries no fingerprint")
        if not isinstance(query, dict) or not isinstance(plan, dict):
            raise ServiceError("corpus record query/plan must be objects")
        if plan.get("format_version") != PLAN_FORMAT_VERSION:
            # History in an older plan format is skipped, never converted.
            raise ServiceError(
                f"corpus record plan format {plan.get('format_version')!r} "
                f"(expected {PLAN_FORMAT_VERSION})"
            )
        return cls(
            fingerprint=fingerprint,
            context=data.get("context"),
            query=query,
            plan=plan,
            seq=int(data.get("seq", 0)),
        )


def _is_budgeted(query: Mapping[str, Any]) -> bool:
    return (
        query.get("max_candidates") is not None
        or query.get("time_budget_s") is not None
    )


class PlanCorpus:
    """Append-only, deduplicated, bounded store of planning outcomes.

    Parameters
    ----------
    directory:
        Where ``corpus.jsonl`` lives; created on first ingest.
    max_records:
        Bound on stored records; overflowing an ingest triggers
        :meth:`compact`, which keeps the newest record per dedupe key and
        then the newest ``max_records`` overall.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_records: int = DEFAULT_MAX_RECORDS,
    ) -> None:
        if max_records < 1:
            raise ServiceError("corpus max_records must be >= 1")
        self.directory = Path(directory).expanduser()
        self.max_records = max_records
        self._records: List[CorpusRecord] = []
        self._keys: set = set()
        self._seq = 0
        self.ingested = 0
        self.deduplicated = 0
        self.rejected_budgeted = 0
        self.skipped_lines = 0
        self._load()

    @property
    def path(self) -> Path:
        return self.directory / CORPUS_FILENAME

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Tuple[CorpusRecord, ...]:
        """Every stored record, oldest first."""
        return tuple(self._records)

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        if not self.path.exists():
            return
        newest: Dict[Tuple[str, int], CorpusRecord] = {}
        # Lines are decoded one by one, so bytes that are not UTF-8 cost one line.
        with self.path.open("rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = CorpusRecord.from_dict(json.loads(line.decode("utf-8")))
                except (KeyError, TypeError, ValueError, RecursionError, ServiceError):
                    # A torn trailing line from a crashed writer, a foreign-format
                    # line, or one that is not UTF-8: skip it, keep the rest.
                    self.skipped_lines += 1
                    continue
                # Duplicate keys (a hand-merged file) resolve newest-wins,
                # matching compact()'s policy.
                current = newest.get(record.key)
                if current is None or record.seq >= current.seq:
                    newest[record.key] = record
                self._seq = max(self._seq, record.seq + 1)
        self._records = sorted(newest.values(), key=lambda r: r.seq)
        self._keys = set(newest)
        if self.skipped_lines:
            logger.debug(
                "corpus load skipped %d malformed or old-format line(s)",
                self.skipped_lines,
            )

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest_outcome(self, outcome, context: Optional[str] = None) -> bool:
        """Store one :class:`~repro.query.PlanOutcome`; True when it was new.

        Budgeted outcomes and outcomes without a fingerprint are refused —
        the corpus only holds deterministic, identifiable history.
        """
        if outcome.query.has_search_budget:
            self.rejected_budgeted += 1
            return False
        if not outcome.fingerprint:
            return False
        return self._ingest(
            fingerprint=outcome.fingerprint,
            context=context,
            query=outcome.query.to_dict(),
            plan=outcome.plan.to_dict(),
        )

    def ingest_record(self, data: Mapping[str, Any], context: Optional[str] = None) -> bool:
        """Store one serialized outcome dict (a ``serve-batch`` JSONL line).

        Accepts both :meth:`PlanOutcome.to_dict` lines (``query`` + ``plan``
        + ``fingerprint`` at the top level) and this corpus's own record
        envelope, so ``repro-cli corpus ingest`` can merge corpora too.
        The plan payload is round-tripped through
        :meth:`~repro.api.OptimizationPlan.from_dict` before storage, so a
        malformed line is rejected rather than poisoning future seeds.
        """
        if not isinstance(data, Mapping):
            return False
        query = data.get("query")
        plan = data.get("plan")
        fingerprint = data.get("fingerprint")
        if not isinstance(query, Mapping) or not isinstance(plan, Mapping):
            return False
        if not isinstance(fingerprint, str) or not fingerprint:
            return False
        if _is_budgeted(query):
            self.rejected_budgeted += 1
            return False
        try:
            OptimizationPlan.from_dict(plan)
        except (ReproError, KeyError, TypeError, ValueError):
            return False
        return self._ingest(
            fingerprint=fingerprint,
            context=data.get("context", context),
            query=dict(query),
            plan=dict(plan),
        )

    def _ingest(
        self,
        fingerprint: str,
        context: Optional[str],
        query: Dict[str, Any],
        plan: Dict[str, Any],
    ) -> bool:
        record = CorpusRecord(
            fingerprint=fingerprint,
            context=context,
            query=query,
            plan=plan,
            seq=self._seq,
        )
        if record.key in self._keys:
            self.deduplicated += 1
            return False
        self._seq += 1
        self._records.append(record)
        self._keys.add(record.key)
        self.ingested += 1
        self._append(record)
        if len(self._records) > self.max_records:
            self.compact()
        return True

    def _append(self, record: CorpusRecord) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), separators=(",", ":")) + "\n")
            handle.flush()

    # ------------------------------------------------------------------ #
    # Maintenance / introspection
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Rewrite the file: newest per key, trimmed to ``max_records``.

        Returns how many records were dropped.  The rewrite goes through
        :func:`~repro.service.cache.atomic_write_text` (a temp file of this
        writer's own, then an atomic rename), so a crash or a concurrent
        compaction never leaves a torn file, and the file keeps its mode.
        """
        newest: Dict[Tuple[str, int], CorpusRecord] = {}
        for record in self._records:
            current = newest.get(record.key)
            if current is None or record.seq >= current.seq:
                newest[record.key] = record
        survivors = sorted(newest.values(), key=lambda r: r.seq)
        if len(survivors) > self.max_records:
            survivors = survivors[-self.max_records :]
        dropped = len(self._records) - len(survivors)
        self._records = survivors
        self._keys = {record.key for record in survivors}
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.path,
            (
                json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
                for record in survivors
            ),
            prefix="corpus.",
        )
        if dropped:
            logger.debug("corpus compaction dropped %d record(s)", dropped)
        return dropped

    def total_bytes(self) -> int:
        """On-disk size of the corpus file in bytes (0 when absent)."""
        return self.path.stat().st_size if self.path.exists() else 0

    def stats(self) -> Dict[str, Any]:
        """JSON-ready summary for ``repro-cli corpus stats``."""
        payloads = sorted(
            {int(r.query.get("bytes_per_device") or 0) for r in self._records}
        )
        return {
            "path": str(self.path),
            "records": len(self._records),
            "distinct_fingerprints": len({r.fingerprint for r in self._records}),
            "distinct_payloads": len(payloads),
            "max_records": self.max_records,
            "total_bytes": self.total_bytes(),
            "ingested": self.ingested,
            "deduplicated": self.deduplicated,
            "rejected_budgeted": self.rejected_budgeted,
            "skipped_lines": self.skipped_lines,
        }

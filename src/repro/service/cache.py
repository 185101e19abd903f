"""Two-tier plan cache: an in-memory LRU over a JSON-on-disk store.

The cache maps query fingerprints (:mod:`repro.service.fingerprint`) to
serialized :class:`~repro.api.OptimizationPlan` objects.  Lookups try the
in-memory tier first (a :class:`~repro.utils.memo.BoundedMemo` of
:data:`MEMORY_ENTRIES` plans, cheap), then the disk tier (one JSON file
per fingerprint, shared across processes and restarts); disk hits are
promoted back into memory.

The (de)serialization itself lives on the domain objects —
:meth:`repro.api.OptimizationPlan.to_dict` / ``from_dict`` — so any caller
can persist plans, not just the cache.  Plans *do*
persist their lowered programs — re-synthesizing them would forfeit the
point of caching — but not the synthesizer's search state, which is why
reconstructed candidates carry ``synthesis=None``.  The programs are
interned (format v4): the plan's ``"steps"`` table holds each distinct
lowered step (collective + device groups) once, and every strategy's
program is a label plus a list of indices into it.  A hit therefore builds
and checks each distinct step once, however many programs use it.

Corrupted or incompatible entries (truncated writes, bytes that are not
UTF-8 or nest deeper than the JSON parser can descend, format bumps — a v3
entry, which inlines every step, is one — a file renamed to the wrong
fingerprint, a step index outside the table) are treated as misses: the
entry is deleted, counted in :attr:`CacheStats.corrupt_entries`, and the
caller recomputes the plan.  The envelope checks happen here; a plan that
fails :meth:`~repro.api.OptimizationPlan.from_dict` is discarded by the
service (:meth:`PlanCache.discard` with ``corrupt=True``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.api import PLAN_FORMAT_VERSION
from repro.errors import ServiceError
from repro.utils.memo import BoundedMemo

__all__ = [
    "PLAN_FORMAT_VERSION",
    "MEMORY_ENTRIES",
    "atomic_write_text",
    "CacheStats",
    "PlanCache",
]

logger = logging.getLogger(__name__)

#: Plans the memory tier keeps (least recently used out; disk entries never are).
MEMORY_ENTRIES = 128


# The mode a plain ``open(path, "w")`` would create files with.  Read once:
# ``os.umask`` can only be read by setting it, which is not thread-safe.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_DEFAULT_FILE_MODE = 0o666 & ~_UMASK


def atomic_write_text(path: Path, chunks: Iterable[str], prefix: str) -> None:
    """Replace ``path`` with the concatenated ``chunks``; no reader ever sees
    a torn file.

    The chunks (consumed lazily, one ``write`` each) go to a temp file in ``path``'s directory whose name is this
    writer's alone (``prefix`` + random + ``.tmp``), then is renamed over
    ``path``; two writers of one path cannot write into, publish or remove
    each other's file.  The temp file is removed on any failure.  The result
    keeps ``path``'s existing mode, or the umask default for a new file (not
    ``mkstemp``'s 0600), so other readers of a shared directory keep access.
    """
    try:
        mode = path.stat().st_mode & 0o777
    except FileNotFoundError:
        mode = _DEFAULT_FILE_MODE
    handle, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            for chunk in chunks:
                stream.write(chunk)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------- #
# The cache proper
# --------------------------------------------------------------------------- #
@dataclass
class CacheStats:
    """Counters accumulated over the lifetime of one :class:`PlanCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def demote_hit(self, tier: Optional[str]) -> None:
        """Reclassify the most recent hit on ``tier`` as a miss.

        Used when a looked-up entry turns out to be unusable (it parsed as
        JSON but failed plan deserialization) so hit rates reflect requests
        actually served from cache.
        """
        if tier == "memory" and self.memory_hits > 0:
            self.memory_hits -= 1
            self.misses += 1
        elif tier == "disk" and self.disk_hits > 0:
            self.disk_hits -= 1
            self.misses += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"lookups={self.lookups} hits={self.hits} "
            f"(memory={self.memory_hits}, disk={self.disk_hits}) "
            f"misses={self.misses} hit_rate={self.hit_rate:.0%} "
            f"stores={self.stores} evictions={self.evictions} "
            f"corrupt={self.corrupt_entries}"
        )


class PlanCache:
    """Two-tier (memory + optional JSON-on-disk) store of serialized plans.

    ``directory`` is where entries persist; ``None`` keeps the cache
    memory-only.  The memory tier holds :data:`MEMORY_ENTRIES` plans.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = (
            Path(directory).expanduser() if directory is not None else None
        )
        self._memory = BoundedMemo("cache.memory", MEMORY_ENTRIES)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def _entry_path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fingerprint}.json"

    def lookup(self, fingerprint: str) -> Tuple[Optional[Dict], Optional[str]]:
        """Return ``(plan_dict, tier)`` where tier is ``"memory"``/``"disk"``/``None``."""
        plan = self._memory.get(fingerprint)
        if plan is not None:
            self.stats.memory_hits += 1
            return plan, "memory"
        plan = self._read_disk(fingerprint)
        if plan is not None:
            self.stats.disk_hits += 1
            self._remember(fingerprint, plan)
            return plan, "disk"
        self.stats.misses += 1
        return None, None

    def put(self, fingerprint: str, plan: Dict) -> None:
        """Store a serialized plan under ``fingerprint`` in both tiers."""
        self._remember(fingerprint, plan)
        self.stats.stores += 1
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._entry_path(fingerprint)
            envelope = {
                "format_version": PLAN_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "plan": plan,
            }
            # No ``indent``: it forces the pure-Python encoder (8x slower,
            # 4x the bytes for a few-hundred-strategy plan).
            atomic_write_text(path, [json.dumps(envelope)], prefix=f"{fingerprint}.")
            logger.debug("stored plan %s to %s", fingerprint, path)

    def _remember(self, fingerprint: str, plan: Dict) -> None:
        self._memory.put(fingerprint, plan)
        self.stats.evictions = self._memory.evicted

    def _read_disk(self, fingerprint: str) -> Optional[Dict]:
        if self.directory is None:
            return None
        path = self._entry_path(fingerprint)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text())
            if envelope["format_version"] != PLAN_FORMAT_VERSION:
                raise ServiceError("stale cache format")
            if envelope["fingerprint"] != fingerprint:
                raise ServiceError("fingerprint mismatch")
            plan = envelope["plan"]
            if not isinstance(plan, dict):
                raise ServiceError("malformed plan payload")
            return plan
        except (ValueError, KeyError, TypeError, RecursionError, ServiceError) as error:
            # ValueError covers invalid JSON and invalid UTF-8; RecursionError
            # a nesting deeper than the parser can descend.
            self.stats.corrupt_entries += 1
            logger.debug("dropping corrupt cache entry %s: %r", path, error)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is best-effort
                pass
            return None

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    @property
    def num_memory_entries(self) -> int:
        return len(self._memory)

    def disk_fingerprints(self) -> List[str]:
        """Fingerprints currently persisted on disk (sorted)."""
        if self.directory is None or not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def disk_bytes(self) -> int:
        """Total size of the disk tier in bytes."""
        if self.directory is None or not self.directory.exists():
            return 0
        return sum(p.stat().st_size for p in self.directory.glob("*.json"))

    def discard(self, fingerprint: str, corrupt: bool = False) -> None:
        """Drop one entry from both tiers (e.g. after failed deserialization)."""
        self._memory.discard(fingerprint)
        if self.directory is not None:
            path = self._entry_path(fingerprint)
            if path.exists():
                path.unlink()
        if corrupt:
            self.stats.corrupt_entries += 1

    def clear(self) -> int:
        """Drop every entry from both tiers; return how many distinct plans were removed."""
        removed = len(self._memory)
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                removed += self._memory.peek(path.stem) is None
                path.unlink()
            # What writers that died mid-store left behind (never entries).
            for path in self.directory.glob("*.tmp"):
                path.unlink()
        self._memory.clear()
        return removed

    def describe(self) -> str:
        tiers = [f"memory {self.num_memory_entries}/{self._memory.bound}"]
        if self.directory is not None:
            tiers.append(
                f"disk {len(self.disk_fingerprints())} entries "
                f"({self.disk_bytes() / 1e3:.1f} kB) at {self.directory}"
            )
        return f"PlanCache({', '.join(tiers)}; {self.stats.describe()})"

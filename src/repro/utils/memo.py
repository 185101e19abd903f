"""The one memo idiom: a bounded, counted least-recently-used map.

Every store that outlives a request — compiled simulation profiles, the shape
memo, the plan cache's memory tier, the topology's cost tables — is a
:class:`BoundedMemo` bounded by a module constant of its owner, so each one
reports its own hits, misses and evictions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class BoundedMemo:
    """At most ``bound`` entries, the least recently used evicted first.

    :meth:`get` counts a hit or a miss and refreshes the entry; :meth:`peek`
    does neither, for callers that must not perturb the accounting; :meth:`put`
    counts each eviction.  ``None`` marks a missing entry, so it is never stored.
    A memo is per-process working state, not identity: it pickles and copies as
    an empty memo with the same name and bound.
    """

    __slots__ = ("name", "bound", "hits", "misses", "evicted", "_entries")

    def __init__(self, name: str, bound: int) -> None:
        self.name, self.bound = name, bound
        self.hits = self.misses = self.evicted = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        size = len(entries)
        entries[key] = value
        if len(entries) == size:  # an overwrite; a new key lands last unhashed again
            entries.move_to_end(key)
        elif size >= self.bound:
            entries.popitem(last=False)
            self.evicted += 1

    def discard(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; the counters keep their lifetime totals."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        return (
            f"{self.name} {len(self._entries)}/{self.bound} "
            f"({self.hits} hits, {self.misses} misses, {self.evicted} evicted)"
        )

    def __reduce__(self):
        return _empty_memo, (type(self), self.name, self.bound)


def _empty_memo(cls: type, name: str, bound: int) -> BoundedMemo:
    memo = cls.__new__(cls)
    BoundedMemo.__init__(memo, name, bound)
    return memo

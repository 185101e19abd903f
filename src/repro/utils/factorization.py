"""Integer factorization helpers.

Parallelism-matrix enumeration (paper §3.1) repeatedly needs all ways of
writing a hierarchy-level cardinality ``h`` as an *ordered* product of ``k``
positive factors: one factor per parallelism axis.  The functions here are
deliberately plain Python (the integers involved are tiny — device counts of
at most a few thousand) and are exhaustively tested against brute force.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from repro.errors import HierarchyError

__all__ = [
    "divisors",
    "ordered_factorizations",
]


@lru_cache(maxsize=None)
def divisors(n: int) -> Tuple[int, ...]:
    """Return all positive divisors of ``n`` in increasing order."""
    if n < 1:
        raise HierarchyError(f"cannot list divisors of non-positive integer {n}")
    small: List[int] = []
    large: List[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def ordered_factorizations(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Yield every tuple ``(f0, ..., f_{k-1})`` of positive ints with product ``n``.

    The factors are *ordered*: ``(2, 1)`` and ``(1, 2)`` are distinct results.
    This is exactly the set of ways one hierarchy level of cardinality ``n``
    can be split across ``k`` parallelism axes.
    """
    if n < 1:
        raise HierarchyError(f"cannot factorize non-positive integer {n}")
    if k < 0:
        raise HierarchyError(f"number of factors must be non-negative, got {k}")
    if k == 0:
        if n == 1:
            yield ()
        return
    if k == 1:
        yield (n,)
        return

    def _rec(remaining: int, slots: int) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for d in divisors(remaining):
            for rest in _rec(remaining // d, slots - 1):
                yield (d,) + rest

    yield from _rec(n, k)


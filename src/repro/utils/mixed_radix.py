"""Mixed-radix coordinate arithmetic.

Devices in a hierarchical system are naturally addressed by one digit per
hierarchy level (most-significant digit at the root).  Parallelism matrices
refine this further: each entry of the matrix is one digit position.  All
conversions between flat indices and digit vectors in the package go through
the helpers in this module so that the digit ordering convention is defined in
exactly one place:

* digit 0 is the most significant (root / level 0),
* the last digit is the least significant (leaf level),
* ``encode(digits, radices)`` therefore equals
  ``digits[-1] + radices[-1] * (digits[-2] + radices[-2] * (...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import HierarchyError

__all__ = ["encode", "decode", "MixedRadix"]


def _check_radices(radices: Sequence[int]) -> None:
    for r in radices:
        if r < 1:
            raise HierarchyError(f"mixed-radix radices must be >= 1, got {list(radices)}")


def encode(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Encode ``digits`` (most-significant first) under ``radices`` to a flat index."""
    if len(digits) != len(radices):
        raise HierarchyError(
            f"digit/radix length mismatch: {len(digits)} digits vs {len(radices)} radices"
        )
    _check_radices(radices)
    value = 0
    for digit, radix in zip(digits, radices):
        if not 0 <= digit < radix:
            raise HierarchyError(f"digit {digit} out of range for radix {radix}")
        value = value * radix + digit
    return value


def decode(value: int, radices: Sequence[int]) -> Tuple[int, ...]:
    """Decode a flat index into digits (most-significant first) under ``radices``."""
    _check_radices(radices)
    total = 1
    for r in radices:
        total *= r
    if not 0 <= value < total:
        raise HierarchyError(f"value {value} out of range for radices {list(radices)}")
    digits: List[int] = [0] * len(radices)
    for position in range(len(radices) - 1, -1, -1):
        radix = radices[position]
        digits[position] = value % radix
        value //= radix
    return tuple(digits)


@dataclass(frozen=True)
class MixedRadix:
    """A fixed sequence of radices with encode/decode/iteration helpers.

    Example
    -------
    >>> mr = MixedRadix((2, 3))
    >>> mr.size
    6
    >>> mr.encode((1, 2))
    5
    >>> mr.decode(5)
    (1, 2)
    """

    radices: Tuple[int, ...]

    def __post_init__(self) -> None:
        _check_radices(self.radices)

    @property
    def size(self) -> int:
        """Total number of representable values (product of the radices)."""
        total = 1
        for r in self.radices:
            total *= r
        return total

    def encode(self, digits: Sequence[int]) -> int:
        return encode(digits, self.radices)

    def decode(self, value: int) -> Tuple[int, ...]:
        return decode(value, self.radices)

    def __len__(self) -> int:
        return len(self.radices)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over all digit vectors in increasing flat-index order."""
        for value in range(self.size):
            yield self.decode(value)

"""Hardware system hierarchies.

A *system* in the paper (§2) consists of a hardware hierarchy — an ordered
list of named levels, each with a cardinality (how many children each instance
of the previous level has) — plus a set of interconnects.  This module models
the hierarchy part; interconnect/bandwidth modelling lives in
:mod:`repro.topology`.

Example (Figure 2a of the paper)::

    >>> hierarchy = SystemHierarchy.from_pairs(
    ...     [("rack", 1), ("server", 2), ("cpu", 2), ("gpu", 4)])
    >>> hierarchy.num_devices
    16
    >>> hierarchy.cardinalities
    (1, 2, 2, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from repro.errors import HierarchyError
from repro.utils.mixed_radix import MixedRadix
from repro.utils.validation import check_positive_int

__all__ = ["Level", "SystemHierarchy"]


@dataclass(frozen=True)
class Level:
    """One level of the hardware hierarchy.

    Attributes
    ----------
    name:
        Human-readable level name (``"rack"``, ``"node"``, ``"gpu"`` ...).
    cardinality:
        Number of instances of this level under a single instance of the
        parent level.  The root level typically has cardinality 1.
    """

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if not self.name:
            raise HierarchyError("level name must be a non-empty string")
        check_positive_int(self.cardinality, f"cardinality of level {self.name!r}", HierarchyError)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.name}, {self.cardinality})"


@dataclass(frozen=True)
class SystemHierarchy:
    """An ordered hardware hierarchy, root level first.

    The hierarchy is the coarse, purely structural view of the system: it says
    how many children each level has but nothing about bandwidths.  Devices
    (leaves) are numbered ``0 .. num_devices - 1`` in mixed-radix order with
    the root level as the most significant digit.
    """

    levels: Tuple[Level, ...]

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise HierarchyError("a system hierarchy needs at least one level")
        names = [level.name for level in self.levels]
        if len(set(names)) != len(names):
            raise HierarchyError(f"level names must be unique, got {names}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, int]]) -> "SystemHierarchy":
        """Build a hierarchy from ``(name, cardinality)`` pairs, root first."""
        return cls(tuple(Level(name, card) for name, card in pairs))

    @classmethod
    def from_cardinalities(
        cls, cardinalities: Sequence[int], names: Sequence[str] = ()
    ) -> "SystemHierarchy":
        """Build a hierarchy from bare cardinalities; names default to ``level0..``."""
        if names and len(names) != len(cardinalities):
            raise HierarchyError("names and cardinalities must have the same length")
        if not names:
            names = tuple(f"level{i}" for i in range(len(cardinalities)))
        return cls.from_pairs(zip(names, cardinalities))

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def cardinalities(self) -> Tuple[int, ...]:
        """Cardinality of each level, root first."""
        return tuple(level.cardinality for level in self.levels)

    @property
    def names(self) -> Tuple[str, ...]:
        """Name of each level, root first."""
        return tuple(level.name for level in self.levels)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_devices(self) -> int:
        """Total number of leaf devices (product of the cardinalities)."""
        total = 1
        for level in self.levels:
            total *= level.cardinality
        return total

    @property
    def radix(self) -> MixedRadix:
        """Mixed radix over the level cardinalities (root most significant)."""
        return MixedRadix(self.cardinalities)

    def __len__(self) -> int:
        return self.num_levels

    def __iter__(self) -> Iterator[Level]:
        return iter(self.levels)

    def __getitem__(self, index: int) -> Level:
        return self.levels[index]

    # ------------------------------------------------------------------ #
    # Device addressing
    # ------------------------------------------------------------------ #
    def device_coordinates(self, device: int) -> Tuple[int, ...]:
        """Return the per-level digits (root first) for a flat device id."""
        return self.radix.decode(device)

    def ancestor_instance(self, device: int, level: int) -> Tuple[int, ...]:
        """Return the coordinates identifying ``device``'s ancestor at ``level``."""
        coords = self.device_coordinates(device)
        return coords[: level + 1]

    def lowest_common_level(self, devices: Sequence[int]) -> int:
        """Return the deepest level at which all ``devices`` share an ancestor.

        Returns ``-1`` when the devices do not even share the root instance
        (only possible for an empty hierarchy, so in practice the result is in
        ``0 .. num_levels - 1``).  A single device shares all levels with
        itself and returns ``num_levels - 1``.
        """
        if len(devices) == 0:
            raise HierarchyError("lowest_common_level needs at least one device")
        coords = [self.device_coordinates(d) for d in devices]
        common = -1
        for level in range(self.num_levels):
            digits = {c[level] for c in coords}
            if len(digits) == 1:
                common = level
            else:
                break
        return common

    def describe(self) -> str:
        """Human-readable one-line description, e.g. ``[(rack, 1), (gpu, 4)]``."""
        return "[" + ", ".join(str(level) for level in self.levels) + "]"

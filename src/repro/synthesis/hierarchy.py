"""Synthesis hierarchies (paper §2.5 and §3.4).

Given a parallelism matrix and the reduction axes, four hierarchies can drive
the synthesis of reduction programs:

* ``(a)`` **SYSTEM** — the hardware hierarchy itself (one level per hardware
  level; each level implicitly covers all parallelism factors of its column).
* ``(b)`` **COLUMN** — one level per parallelism factor, column-major
  (hardware level outermost).
* ``(c)`` **ROW** — one level per parallelism factor, row-major (parallelism
  axis outermost).
* ``(d)`` **REDUCTION** — only the reduction axes' factors, row-major, with
  factors on the same hardware level optionally collapsed into one level.
  This is the hierarchy P² actually uses (Theorem 3.2: it is the most
  expressive of the four once programs are lowered).

A :class:`SynthesisHierarchy` records, for every level, which matrix positions
``(axis, hardware level)`` the level covers.  This is what lets lowering
translate a virtual device of the hierarchy into digits of the full placement
grid.  Positions not covered by any level are *free*: lowering replicates the
synthesized grouping across every assignment of the free digits (paper §3.4:
"lowering applies the generated grouping patterns to non-reduction axes").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, List, Tuple

from repro.errors import SynthesisError
from repro.hierarchy.matrix import ParallelismMatrix
from repro.hierarchy.parallelism import ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.goals import all_reduce_goal, goal_context, initial_context
from repro.semantics.state import StateContext
from repro.utils.mixed_radix import MixedRadix

__all__ = [
    "HierarchyVariant",
    "SynthesisLevel",
    "SynthesisHierarchy",
    "build_synthesis_hierarchy",
]

Position = Tuple[int, int]  # (parallelism axis row, hardware level column)


class HierarchyVariant(str, Enum):
    """Which of the paper's four candidate synthesis hierarchies to use."""

    SYSTEM = "system"            # (a)
    COLUMN = "column"            # (b)
    ROW = "row"                  # (c)
    REDUCTION = "reduction"      # (d), uncollapsed
    REDUCTION_COLLAPSED = "reduction-collapsed"  # (d) with same-level factors collapsed


@dataclass(frozen=True)
class SynthesisLevel:
    """One level of a synthesis hierarchy.

    ``positions`` lists the parallelism-matrix positions the level covers in
    the order their digits are packed into the level's digit (most significant
    first); ``radix`` is the product of the corresponding factors.  The
    synthetic root level covers no positions and has radix 1.
    """

    name: str
    radix: int
    positions: Tuple[Position, ...]

    def __post_init__(self) -> None:
        if self.radix < 1:
            raise SynthesisError(f"level {self.name!r} has radix {self.radix} < 1")


@dataclass(frozen=True)
class SynthesisHierarchy:
    """A concrete synthesis hierarchy over one parallelism matrix."""

    variant: HierarchyVariant
    matrix: ParallelismMatrix
    reduction_axes: Tuple[int, ...]
    levels: Tuple[SynthesisLevel, ...]

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise SynthesisError("a synthesis hierarchy needs at least one level")
        for level in self.levels:
            expected = 1
            for (i, j) in level.positions:
                expected *= self.matrix.factor(i, j)
            if expected != level.radix:
                raise SynthesisError(
                    f"level {level.name!r} radix {level.radix} does not match the product "
                    f"of its covered factors ({expected})"
                )
        seen: set = set()
        for level in self.levels:
            for position in level.positions:
                if position in seen:
                    raise SynthesisError(f"matrix position {position} covered twice")
                seen.add(position)

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def radices(self) -> Tuple[int, ...]:
        return tuple(level.radix for level in self.levels)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(level.name for level in self.levels)

    @property
    def num_virtual_devices(self) -> int:
        total = 1
        for level in self.levels:
            total *= level.radix
        return total

    @cached_property
    def covered_positions(self) -> Tuple[Position, ...]:
        """All matrix positions covered by some level, in level/packing order."""
        positions: List[Position] = []
        for level in self.levels:
            positions.extend(level.positions)
        return tuple(positions)

    @cached_property
    def free_positions(self) -> Tuple[Position, ...]:
        """Matrix positions not covered by any level (replicated during lowering)."""
        covered = set(self.covered_positions)
        free: List[Position] = []
        for i in range(self.matrix.num_rows):
            for j in range(self.matrix.num_cols):
                if (i, j) not in covered:
                    free.append((i, j))
        return tuple(free)

    @cached_property
    def _virtual_radix(self) -> MixedRadix:
        return MixedRadix(self.radices)

    # ------------------------------------------------------------------ #
    # Virtual devices <-> matrix digits
    # ------------------------------------------------------------------ #
    def virtual_to_position_digits(self, virtual_device: int) -> Dict[Position, int]:
        """Map a virtual device index to digits for every covered matrix position."""
        level_digits = self._virtual_radix.decode(virtual_device)
        digits: Dict[Position, int] = {}
        for level, level_digit in zip(self.levels, level_digits):
            if not level.positions:
                continue
            sub = MixedRadix(tuple(self.matrix.factor(i, j) for i, j in level.positions))
            for position, digit in zip(level.positions, sub.decode(level_digit)):
                digits[position] = digit
        return digits

    @cached_property
    def _device_offsets(self) -> Tuple[List[int], List[int]]:
        """Device-id offsets of every virtual device and of every free-digit
        assignment (``free_positions`` order): a physical device is one of each, summed.
        A virtual device's digits are its covered positions' in packing order."""
        placement = DevicePlacement(self.matrix)
        return (
            placement.digit_offsets(self.covered_positions),
            placement.digit_offsets(self.free_positions),
        )

    @cached_property
    def _physical_device_maps(self) -> Tuple[Tuple[int, ...], ...]:
        """Per free-digit assignment (``free_positions`` order): virtual -> physical device id."""
        virtual, free = self._device_offsets
        return tuple(tuple(base + offset for offset in virtual) for base in free)

    def physical_groups(self, virtual_groups) -> Tuple[Tuple[int, ...], ...]:
        """``virtual_groups`` as physical device groups, replicated over every
        free-digit assignment.  Programs of one hierarchy draw their steps from
        one small instruction alphabet and placements are pure in the matrix, so
        each grouping is mapped once per hierarchy and shared by every program.
        """
        memo = self.__dict__.setdefault("_physical_groups", {})
        groups = memo.get(virtual_groups)
        if groups is None:
            groups = memo[virtual_groups] = tuple(
                tuple(mapping[v] for v in group)
                for mapping in self._physical_device_maps
                for group in virtual_groups
            )
        return groups

    # ------------------------------------------------------------------ #
    # Synthesis problem (initial / goal contexts over the virtual devices)
    # ------------------------------------------------------------------ #
    def initial_context(self) -> StateContext:
        return initial_context(self.num_virtual_devices)

    def goal(self) -> StateContext:
        """The goal context over the virtual devices for the requested reduction.

        For the reduction-axis variants every virtual device is in the same
        reduction group (the full all-reduce goal).  For the whole-matrix
        variants each virtual device's group contains the virtual devices that
        agree with it on every non-reduction-axis digit.
        """
        if self.variant in (HierarchyVariant.REDUCTION, HierarchyVariant.REDUCTION_COLLAPSED):
            return all_reduce_goal(self.num_virtual_devices)
        groups: Dict[Tuple, List[int]] = {}
        for virtual in range(self.num_virtual_devices):
            digits = self.virtual_to_position_digits(virtual)
            key = tuple(
                digits[(i, j)]
                for (i, j) in sorted(digits)
                if i not in self.reduction_axes
            )
            groups.setdefault(key, []).append(virtual)
        return goal_context(self.num_virtual_devices, [groups[k] for k in sorted(groups)])

    def describe(self) -> str:
        parts = [f"{level.name}:{level.radix}" for level in self.levels]
        return f"{self.variant.value} [" + " ".join(parts) + "]"


# --------------------------------------------------------------------------- #
# Constructors for the four variants
# --------------------------------------------------------------------------- #
def _root_level() -> SynthesisLevel:
    return SynthesisLevel(name="root", radix=1, positions=())


def _level_name(matrix: ParallelismMatrix, position: Position) -> str:
    axis, level = position
    return f"{matrix.axes.names[axis]}@{matrix.hierarchy.names[level]}"


def build_synthesis_hierarchy(
    matrix: ParallelismMatrix,
    request: ReductionRequest,
    variant: HierarchyVariant = HierarchyVariant.REDUCTION_COLLAPSED,
) -> SynthesisHierarchy:
    """Build one of the four candidate synthesis hierarchies for ``matrix``."""
    request.validate_against(matrix.axes)
    reduction_axes = tuple(sorted(request.axes))
    levels: List[SynthesisLevel] = [_root_level()]

    if variant == HierarchyVariant.SYSTEM:
        for j in range(matrix.num_cols):
            positions = tuple((i, j) for i in range(matrix.num_rows))
            levels.append(
                SynthesisLevel(
                    name=matrix.hierarchy.names[j],
                    radix=matrix.hierarchy.cardinalities[j],
                    positions=positions,
                )
            )
    elif variant == HierarchyVariant.COLUMN:
        for j in range(matrix.num_cols):
            for i in range(matrix.num_rows):
                position = (i, j)
                levels.append(
                    SynthesisLevel(
                        name=_level_name(matrix, position),
                        radix=matrix.factor(i, j),
                        positions=(position,),
                    )
                )
    elif variant == HierarchyVariant.ROW:
        for i in range(matrix.num_rows):
            for j in range(matrix.num_cols):
                position = (i, j)
                levels.append(
                    SynthesisLevel(
                        name=_level_name(matrix, position),
                        radix=matrix.factor(i, j),
                        positions=(position,),
                    )
                )
    elif variant == HierarchyVariant.REDUCTION:
        for i in reduction_axes:
            for j in range(matrix.num_cols):
                position = (i, j)
                levels.append(
                    SynthesisLevel(
                        name=_level_name(matrix, position),
                        radix=matrix.factor(i, j),
                        positions=(position,),
                    )
                )
    elif variant == HierarchyVariant.REDUCTION_COLLAPSED:
        for j in range(matrix.num_cols):
            positions = tuple((i, j) for i in reduction_axes)
            radix = 1
            for i in reduction_axes:
                radix *= matrix.factor(i, j)
            levels.append(
                SynthesisLevel(
                    name=matrix.hierarchy.names[j],
                    radix=radix,
                    positions=positions,
                )
            )
    else:  # pragma: no cover - defensive
        raise SynthesisError(f"unknown hierarchy variant {variant!r}")

    return SynthesisHierarchy(
        variant=variant,
        matrix=matrix,
        reduction_axes=reduction_axes,
        levels=tuple(levels),
    )

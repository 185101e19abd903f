"""Interpreting a parallelism matrix as a concrete device placement.

A parallelism matrix refines every hardware level into one digit per
parallelism axis.  A device is therefore addressed by a full digit grid
``c[i][j]`` (axis ``i``, level ``j``) with ``0 <= c[i][j] < X[i][j]``, and the
placement is the bijection between those grids and

* flat physical device ids (mixed radix over levels, digits within a level
  ordered by axis), and
* per-axis parallelism coordinates (mixed radix over levels for that axis).

This is the interpretation of Figure 2 in the paper: device ``n/m`` in the
figure is the device whose data-parallel coordinate is ``n`` and whose
parameter-shard coordinate is ``m``.

Reduction groups fall out directly: devices that share every non-reduction
axis coordinate form one group, ordered by their reduction-axis digits (the
order the synthesis hierarchy (d) uses, which is what makes lowering a pure
re-indexing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.errors import PlacementError
from repro.hierarchy.matrix import ParallelismMatrix
from repro.hierarchy.parallelism import ReductionRequest
from repro.semantics.goals import goal_context, initial_context
from repro.semantics.state import StateContext
from repro.utils.mixed_radix import MixedRadix

__all__ = ["DevicePlacement"]

CoordGrid = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class DevicePlacement:
    """Coordinate bookkeeping for one parallelism matrix.

    All conversions are pure functions of the matrix; the class only caches
    the mixed-radix helpers.
    """

    matrix: ParallelismMatrix

    # ------------------------------------------------------------------ #
    # Radix helpers
    # ------------------------------------------------------------------ #
    @cached_property
    def _level_radices(self) -> Tuple[MixedRadix, ...]:
        """Per level: mixed radix over that level's per-axis factors (axis order)."""
        return tuple(
            MixedRadix(self.matrix.column(j)) for j in range(self.matrix.num_cols)
        )

    @cached_property
    def _hierarchy_radix(self) -> MixedRadix:
        return MixedRadix(self.matrix.hierarchy.cardinalities)

    @cached_property
    def _axis_radices(self) -> Tuple[MixedRadix, ...]:
        """Per axis: mixed radix over that axis's per-level factors (level order)."""
        return tuple(MixedRadix(self.matrix.row(i)) for i in range(self.matrix.num_rows))

    @cached_property
    def strides(self) -> Tuple[Tuple[int, ...], ...]:
        """``strides[i][j]``: how far the device id moves per unit of digit ``c[i][j]``.

        :meth:`grid_to_device` is ``sum(c[i][j] * strides[i][j])``: levels are
        mixed-radix digits of the id, and each level's digit is the mixed radix
        of its per-axis digits, so position (axis, level) weighs the product of
        every factor after it in (level, axis) order.
        """
        strides = [[0] * self.num_levels for _ in range(self.num_axes)]
        stride = 1
        for j in reversed(range(self.num_levels)):
            for i in reversed(range(self.num_axes)):
                strides[i][j] = stride
                stride *= self.matrix.factor(i, j)
        return tuple(tuple(row) for row in strides)

    def digit_offsets(self, positions: Sequence[Tuple[int, int]]) -> List[int]:
        """The device-id offset of every digit assignment to ``positions`` (every
        other digit 0), in mixed-radix order over ``positions`` taken
        most-significant first."""
        strides = self.strides
        offsets = [0]
        for i, j in positions:
            stride = strides[i][j]
            offsets = [
                offset + digit * stride
                for offset in offsets
                for digit in range(self.matrix.factor(i, j))
            ]
        return offsets

    @property
    def num_devices(self) -> int:
        return self.matrix.num_devices

    @property
    def num_axes(self) -> int:
        return self.matrix.num_rows

    @property
    def num_levels(self) -> int:
        return self.matrix.num_cols

    # ------------------------------------------------------------------ #
    # Grid <-> device id
    # ------------------------------------------------------------------ #
    def grid_to_device(self, grid: Sequence[Sequence[int]]) -> int:
        """Map a full digit grid ``c[i][j]`` to the flat physical device id."""
        self._check_grid(grid)
        level_digits = []
        for j in range(self.num_levels):
            column_digits = tuple(grid[i][j] for i in range(self.num_axes))
            level_digits.append(self._level_radices[j].encode(column_digits))
        return self._hierarchy_radix.encode(level_digits)

    def device_to_grid(self, device: int) -> CoordGrid:
        """Map a flat physical device id back to the full digit grid."""
        level_digits = self._hierarchy_radix.decode(device)
        grid: List[List[int]] = [[0] * self.num_levels for _ in range(self.num_axes)]
        for j, level_digit in enumerate(level_digits):
            column_digits = self._level_radices[j].decode(level_digit)
            for i in range(self.num_axes):
                grid[i][j] = column_digits[i]
        return tuple(tuple(row) for row in grid)

    def _check_grid(self, grid: Sequence[Sequence[int]]) -> None:
        if len(grid) != self.num_axes:
            raise PlacementError(f"grid has {len(grid)} rows, expected {self.num_axes}")
        for i, row in enumerate(grid):
            if len(row) != self.num_levels:
                raise PlacementError(
                    f"grid row {i} has {len(row)} columns, expected {self.num_levels}"
                )
            for j, digit in enumerate(row):
                limit = self.matrix.factor(i, j)
                if not 0 <= digit < limit:
                    raise PlacementError(
                        f"grid digit c[{i}][{j}] = {digit} out of range [0, {limit})"
                    )

    # ------------------------------------------------------------------ #
    # Parallelism coordinates
    # ------------------------------------------------------------------ #
    def axis_coordinate(self, device: int, axis: int) -> int:
        """Coordinate of ``device`` along parallelism ``axis`` (e.g. its data-parallel rank)."""
        grid = self.device_to_grid(device)
        return self._axis_radices[axis].encode(grid[axis])

    def parallel_coordinates(self, device: int) -> Tuple[int, ...]:
        """All per-axis coordinates of ``device`` (one entry per parallelism axis)."""
        grid = self.device_to_grid(device)
        return tuple(
            self._axis_radices[i].encode(grid[i]) for i in range(self.num_axes)
        )

    def device_for_coordinates(self, coordinates: Sequence[int]) -> int:
        """Inverse of :meth:`parallel_coordinates`."""
        if len(coordinates) != self.num_axes:
            raise PlacementError(
                f"expected {self.num_axes} parallel coordinates, got {len(coordinates)}"
            )
        grid: List[Tuple[int, ...]] = []
        for i, coord in enumerate(coordinates):
            grid.append(self._axis_radices[i].decode(coord))
        return self.grid_to_device(grid)

    @cached_property
    def coordinate_table(self) -> Tuple[Tuple[int, ...], ...]:
        """``coordinate_table[d]`` is :meth:`parallel_coordinates` of device ``d``."""
        return tuple(self.parallel_coordinates(d) for d in range(self.num_devices))

    # ------------------------------------------------------------------ #
    # Reduction groups
    # ------------------------------------------------------------------ #
    def reduction_groups(self, request: ReductionRequest) -> List[List[int]]:
        """Return the reduction groups for ``request``.

        Devices sharing all non-reduction coordinates form a group.  Within a
        group, devices are ordered by their reduction-axis digits flattened in
        the (axis-major, level-minor) order used by synthesis hierarchy (d):
        this ordering is what lowering relies on, and also fixes which device
        acts as the root for Reduce / Broadcast (the first one).
        Computed once per placement and reduction axes; every call returns
        fresh lists, so callers may mutate what they get.
        """
        request.validate_against(self.matrix.axes)
        memo = self.__dict__.setdefault("_reduction_groups", {})
        if request.axes not in memo:
            # Groups in the order of their non-reduction digits, members in the
            # order of their reduction digits: two offset lists, summed.
            members = self.digit_offsets(
                [(i, j) for i in request.axes for j in range(self.num_levels)]
            )
            memo[request.axes] = tuple(
                tuple(base + offset for offset in members)
                for base in self.digit_offsets(
                    [
                        (i, j)
                        for i in range(self.num_axes)
                        if i not in request.axes
                        for j in range(self.num_levels)
                    ]
                )
            )
        return [list(group) for group in memo[request.axes]]

    def reduction_contexts(self, request: ReductionRequest) -> Tuple[StateContext, StateContext]:
        """The ``(initial, goal)`` Hoare contexts of ``request`` over the physical devices.

        A pure function of the matrix and the reduction axes: computed once
        per placement, shared (immutable) by every program validated on it.
        """
        memo = self.__dict__.setdefault("_reduction_contexts", {})
        if request.axes not in memo:
            memo[request.axes] = (
                initial_context(self.num_devices),
                goal_context(self.num_devices, self.reduction_groups(request)),
            )
        return memo[request.axes]

    @cached_property
    def hoare_transitions(self) -> Dict:
        """Reduction axes -> the transition table validation fills while this placement's
        matrix is searched (:func:`repro.synthesis.lowering.forget_transitions` empties it)."""
        return {}

    def __getstate__(self) -> Dict:
        # Memos are pure in the matrix: a shipped placement rebuilds what it needs.
        return {"matrix": self.matrix}

    def reduction_group_of(self, device: int, request: ReductionRequest) -> List[int]:
        """Return the (ordered) reduction group containing ``device``."""
        for group in self.reduction_groups(request):
            if device in group:
                return group
        raise PlacementError(f"device {device} not found in any reduction group")

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def placement_table(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Return ``(device, parallel coordinates)`` rows, device order."""
        return [(d, self.parallel_coordinates(d)) for d in range(self.num_devices)]

    def describe_device(self, device: int) -> str:
        """Human-readable marker like the paper's ``n/m`` labels in Figure 2."""
        coords = self.parallel_coordinates(device)
        return "/".join(str(c) for c in coords)

"""Differential tests: placement geometry from strides against per-device decoding.

``DevicePlacement`` turns every matrix position (axis, level) into one
device-id stride and builds reduction groups, and ``SynthesisHierarchy`` its
virtual-to-physical device maps, from offset lists over those strides.  The
references below are the direct constructions: decode every device id into
its digit grid with ``MixedRadix`` (or encode every virtual device's digits
back into an id) and sort.  On generated hierarchies — 2 to 4 levels,
cardinalities that are not powers of two — and every non-empty set of
reduction axes, both must give the same devices in the same order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import ParallelismMatrix, enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.synthesis.hierarchy import (
    HierarchyVariant,
    SynthesisHierarchy,
    build_synthesis_hierarchy,
)
from repro.utils.mixed_radix import MixedRadix

from oracles.placement import free_radix, grid_to_device


# --------------------------------------------------------------------------- #
# References: one device at a time, through the digit grid
# --------------------------------------------------------------------------- #
def reference_reduction_groups(
    placement: DevicePlacement, request: ReductionRequest
) -> List[List[int]]:
    """Devices sharing every non-reduction digit, ordered by reduction digits."""
    reduction_axes = list(request.axes)
    positions = [(i, j) for i in reduction_axes for j in range(placement.num_levels)]
    radices = MixedRadix(tuple(placement.matrix.factor(i, j) for i, j in positions))
    groups: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    for device in range(placement.num_devices):
        grid = placement.device_to_grid(device)
        key = tuple(
            grid[i][j]
            for i in range(placement.num_axes)
            if i not in reduction_axes
            for j in range(placement.num_levels)
        )
        rank = radices.encode(tuple(grid[i][j] for i, j in positions))
        groups.setdefault(key, []).append((rank, device))
    return [[device for _, device in sorted(groups[key])] for key in sorted(groups)]


def reference_physical_device(
    hierarchy: SynthesisHierarchy,
    placement: DevicePlacement,
    virtual_device: int,
    free_digits: Sequence[int],
) -> int:
    """A virtual device's covered digits plus the free digits, encoded as a grid."""
    digits = hierarchy.virtual_to_position_digits(virtual_device)
    for position, digit in zip(hierarchy.free_positions, free_digits):
        digits[position] = digit
    matrix = hierarchy.matrix
    grid = [
        [digits.get((i, j), 0) for j in range(matrix.num_cols)]
        for i in range(matrix.num_rows)
    ]
    return grid_to_device(placement, grid)


def reference_physical_device_maps(
    hierarchy: SynthesisHierarchy,
) -> Tuple[Tuple[int, ...], ...]:
    placement = DevicePlacement(hierarchy.matrix)
    return tuple(
        tuple(
            reference_physical_device(hierarchy, placement, v, free)
            for v in range(hierarchy.num_virtual_devices)
        )
        for free in (list(free_radix(hierarchy)) or [()])
    )


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
def divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def matrices(draw) -> ParallelismMatrix:
    """A placement of 1-3 axes on a 2-4 level hierarchy (cardinalities 1-6)."""
    cardinalities = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=2, max_size=4))
    hierarchy = SystemHierarchy.from_pairs(
        (f"l{j}", c) for j, c in enumerate(cardinalities)
    )
    remaining = hierarchy.num_devices
    sizes = []
    for _ in range(draw(st.integers(0, 2))):
        size = draw(st.sampled_from(divisors(remaining)))
        sizes.append(size)
        remaining //= size
    sizes.append(remaining)
    found = enumerate_parallelism_matrices(hierarchy, ParallelismAxes.of(*sizes))
    return draw(st.sampled_from(found))


def requests(matrix: ParallelismMatrix) -> List[ReductionRequest]:
    """Every non-empty subset of the axes."""
    axes = range(matrix.num_rows)
    return [
        ReductionRequest(subset)
        for size in range(1, matrix.num_rows + 1)
        for subset in combinations(axes, size)
    ]


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestStridesAgainstPerDeviceDecoding:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_grid_to_device_is_the_stride_sum(self, matrix):
        placement = DevicePlacement(matrix)
        for device in range(placement.num_devices):
            grid = placement.device_to_grid(device)
            assert device == sum(
                digit * stride
                for row, strides in zip(grid, placement.strides)
                for digit, stride in zip(row, strides)
            )

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_reduction_groups(self, matrix):
        for request in requests(matrix):
            placement = DevicePlacement(matrix)
            assert placement.reduction_groups(request) == reference_reduction_groups(
                placement, request
            )

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_physical_device_maps(self, matrix):
        for request in requests(matrix):
            for variant in HierarchyVariant:
                hierarchy = build_synthesis_hierarchy(matrix, request, variant)
                expected = reference_physical_device_maps(hierarchy)
                assert hierarchy._physical_device_maps == expected

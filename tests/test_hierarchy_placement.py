"""Tests for repro.hierarchy.placement (DevicePlacement)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement

from oracles.placement import grid_to_device


class TestGridConversions:
    def test_grid_roundtrip_all_devices(self, figure2d_placement):
        for device in range(figure2d_placement.num_devices):
            grid = figure2d_placement.device_to_grid(device)
            assert grid_to_device(figure2d_placement, grid) == device

    def test_device_zero_grid_is_all_zero(self, figure2d_placement):
        grid = figure2d_placement.device_to_grid(0)
        assert all(all(d == 0 for d in row) for row in grid)


class TestParallelCoordinates:
    def test_every_shard_combination_appears_once(self, figure2d_placement):
        coords = {figure2d_placement.parallel_coordinates(d)
                  for d in range(figure2d_placement.num_devices)}
        assert coords == {(n, m) for n in range(4) for m in range(4)}

    def test_describe_device_marker(self, figure2d_placement):
        marker = figure2d_placement.describe_device(0)
        assert marker == "0/0"


def devices_under_cpu(hierarchy, server, cpu):
    """The GPUs below one CPU of the Figure 2a hierarchy (level 2)."""
    return [
        d for d in range(hierarchy.num_devices)
        if hierarchy.ancestor_instance(d, 2) == (0, server, cpu)
    ]


class TestFigure2Interpretation:
    """The worked interpretation of Figure 2b in §2.1 of the paper."""

    def test_figure2b_each_cpu_is_one_replica(self, figure2_matrices):
        matrix = next(m for m in figure2_matrices if m.entries == ((1, 2, 2, 1), (1, 1, 1, 4)))
        placement = DevicePlacement(matrix)
        hierarchy = matrix.hierarchy
        # Every CPU holds one full data-parallel replica: all 4 GPUs under a CPU
        # share the same data coordinate and carry the 4 different shards.
        for server in range(2):
            for cpu in range(2):
                devices = devices_under_cpu(hierarchy, server, cpu)
                assert len(devices) == 4
                data_coords = {placement.parallel_coordinates(d)[0] for d in devices}
                shard_coords = sorted(placement.parallel_coordinates(d)[1] for d in devices)
                assert len(data_coords) == 1
                assert shard_coords == [0, 1, 2, 3]

    def test_figure2d_gpu_level_splits_both_axes(self, figure2d_placement):
        # In Figure 2d each CPU's 4 GPUs cover 2 data coordinates x 2 shards.
        hierarchy = figure2d_placement.matrix.hierarchy
        devices = devices_under_cpu(hierarchy, 0, 0)
        assert devices == [0, 1, 2, 3]
        data_coords = {figure2d_placement.parallel_coordinates(d)[0] for d in devices}
        shard_coords = {figure2d_placement.parallel_coordinates(d)[1] for d in devices}
        assert len(data_coords) == 2 and len(shard_coords) == 2


class TestReductionGroups:
    def test_groups_partition_devices(self, figure2d_placement, shard_reduction):
        groups = figure2d_placement.reduction_groups(shard_reduction)
        flattened = [d for g in groups for d in g]
        assert sorted(flattened) == list(range(16))
        assert len(groups) == 4 and all(len(g) == 4 for g in groups)

    def test_group_members_differ_only_on_reduction_axis(
        self, figure2d_placement, shard_reduction
    ):
        for group in figure2d_placement.reduction_groups(shard_reduction):
            data_coords = {figure2d_placement.parallel_coordinates(d)[0] for d in group}
            shard_coords = {figure2d_placement.parallel_coordinates(d)[1] for d in group}
            assert len(data_coords) == 1
            assert len(shard_coords) == len(group)

    def test_multi_axis_reduction_single_group(self, figure2d_placement):
        request = ReductionRequest.over(0, 1)
        groups = figure2d_placement.reduction_groups(request)
        assert len(groups) == 1 and len(groups[0]) == 16

    def test_group_ordering_follows_reduction_digits(self):
        # For a [[2 1] [1 16]] placement on [2 16] the axis-0 reduction pairs
        # device i with device i+16, and the group is ordered by the axis-0
        # coordinate (node 0 first).
        hierarchy = SystemHierarchy.from_cardinalities([2, 16], ["node", "gpu"])
        matrices = enumerate_parallelism_matrices(hierarchy, ParallelismAxes.of(2, 16))
        matrix = next(m for m in matrices if m.entries == ((2, 1), (1, 16)))
        placement = DevicePlacement(matrix)
        groups = placement.reduction_groups(ReductionRequest.over(0))
        assert [0, 16] in groups and [15, 31] in groups


class TestPlacementProperties:
    @given(st.sampled_from([(4, 4), (2, 8), (8, 2), (16, 1), (2, 2)]))
    @settings(max_examples=10, deadline=None)
    def test_bijection_for_every_matrix(self, axes_sizes):
        hierarchy = SystemHierarchy.from_cardinalities([2, 2, 4])
        axes = ParallelismAxes(axes_sizes)
        for matrix in enumerate_parallelism_matrices(hierarchy, axes):
            placement = DevicePlacement(matrix)
            coords = {placement.parallel_coordinates(d) for d in range(16)}
            assert len(coords) == 16  # bijection between devices and shard coordinates


#: The four parallelism matrices of the Figure 2 example, named by their rows.
FIGURE2_ENTRIES = {
    "1114-1221": ((1, 1, 1, 4), (1, 2, 2, 1)),
    "1122-1212": ((1, 1, 2, 2), (1, 2, 1, 2)),
    "1212-1122": ((1, 2, 1, 2), (1, 1, 2, 2)),
    "1221-1114": ((1, 2, 2, 1), (1, 1, 1, 4)),
}


def figure2_placement(figure2_matrices, name):
    return DevicePlacement(
        next(m for m in figure2_matrices if m.entries == FIGURE2_ENTRIES[name])
    )


class TestEveryFigure2Placement:
    """Placement geometry on every matrix of the Figure 2 example, not only 2d."""

    def test_the_four_matrices_are_all_of_figure2(self, figure2_matrices):
        assert sorted(m.entries for m in figure2_matrices) == sorted(FIGURE2_ENTRIES.values())

    @pytest.mark.parametrize("name", sorted(FIGURE2_ENTRIES))
    def test_grids_and_coordinates_are_bijections(self, figure2_matrices, name):
        placement = figure2_placement(figure2_matrices, name)
        grids = [placement.device_to_grid(d) for d in range(16)]
        assert [grid_to_device(placement, grid) for grid in grids] == list(range(16))
        coordinates = sorted(placement.parallel_coordinates(d) for d in range(16))
        assert coordinates == [(n, m) for n in range(4) for m in range(4)]

    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)], ids=["data", "shard", "both"])
    @pytest.mark.parametrize("name", sorted(FIGURE2_ENTRIES))
    def test_reduction_groups_partition_the_devices(self, figure2_matrices, name, axes):
        placement = figure2_placement(figure2_matrices, name)
        request = ReductionRequest.over(*axes)
        groups = placement.reduction_groups(request)
        assert sorted(d for group in groups for d in group) == list(range(16))
        size = math.prod(placement.matrix.axes.sizes[a] for a in axes)
        assert all(len(group) == size for group in groups)
        for group in groups:
            coords = [placement.parallel_coordinates(d) for d in group]
            # Members agree on every other axis and differ on the reduced ones.
            kept = {tuple(c[i] for i in range(2) if i not in axes) for c in coords}
            reduced = {tuple(c[i] for i in axes) for c in coords}
            assert len(kept) == 1 and len(reduced) == len(group)
        # Group members are ordered by their reduction digits, so the first
        # member (the root of Reduce/Broadcast) has all reduction coordinates 0.
        assert all(
            all(placement.parallel_coordinates(group[0])[i] == 0 for i in axes)
            for group in groups
        )

"""Tests for repro.synthesis.hierarchy (the four synthesis hierarchies, §2.5/§3.4)."""

from __future__ import annotations

import pytest

from repro.errors import SynthesisError
from repro.hierarchy.matrix import ParallelismMatrix, enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.state import DeviceState
from repro.synthesis.hierarchy import (
    HierarchyVariant,
    SynthesisHierarchy,
    SynthesisLevel,
    build_synthesis_hierarchy,
)

from oracles.placement import free_radix


class TestVariantsOnFigure2d:
    """The synthesis hierarchies of Table 1 (first example) for the Figure 2d matrix."""

    def test_system_variant(self, figure2d_matrix, shard_reduction):
        hierarchy = build_synthesis_hierarchy(
            figure2d_matrix, shard_reduction, HierarchyVariant.SYSTEM
        )
        assert hierarchy.radices == (1, 1, 2, 2, 4)  # root + [1 2 2 4]
        assert hierarchy.num_virtual_devices == 16
        assert hierarchy.free_positions == ()

    def test_column_variant(self, figure2d_matrix, shard_reduction):
        hierarchy = build_synthesis_hierarchy(
            figure2d_matrix, shard_reduction, HierarchyVariant.COLUMN
        )
        assert hierarchy.radices == (1, 1, 1, 1, 2, 2, 1, 2, 2)  # root + column-major
        assert hierarchy.num_virtual_devices == 16

    def test_row_variant(self, figure2d_matrix, shard_reduction):
        hierarchy = build_synthesis_hierarchy(
            figure2d_matrix, shard_reduction, HierarchyVariant.ROW
        )
        assert hierarchy.radices == (1, 1, 1, 2, 2, 1, 2, 1, 2)  # root + row-major
        assert hierarchy.num_virtual_devices == 16

    def test_reduction_variant(self, figure2d_matrix, shard_reduction):
        hierarchy = build_synthesis_hierarchy(
            figure2d_matrix, shard_reduction, HierarchyVariant.REDUCTION
        )
        assert hierarchy.radices == (1, 1, 2, 1, 2)  # root + the reduction row [1 2 1 2]
        assert hierarchy.num_virtual_devices == 4
        # The non-reduction (data) axis positions stay free for lowering.
        assert len(hierarchy.free_positions) == 4

    def test_reduction_collapsed_variant(self, figure2d_synthesis_hierarchy):
        assert figure2d_synthesis_hierarchy.radices == (1, 1, 2, 1, 2)
        assert figure2d_synthesis_hierarchy.num_virtual_devices == 4

    def test_collapsing_merges_same_level_factors(self):
        # Reduce over both axes: the collapsed hierarchy is the system hierarchy.
        hierarchy = SystemHierarchy.from_pairs(
            [("rack", 1), ("server", 2), ("cpu", 2), ("gpu", 4)]
        )
        axes = ParallelismAxes.of(4, 4)
        matrix = enumerate_parallelism_matrices(hierarchy, axes)[0]
        collapsed = build_synthesis_hierarchy(
            matrix, ReductionRequest.over(0, 1), HierarchyVariant.REDUCTION_COLLAPSED
        )
        assert collapsed.radices == (1, 1, 2, 2, 4)
        uncollapsed = build_synthesis_hierarchy(
            matrix, ReductionRequest.over(0, 1), HierarchyVariant.REDUCTION
        )
        assert uncollapsed.num_virtual_devices == collapsed.num_virtual_devices == 16


class TestPaperTable1:
    def test_collapsed_matches_paper_table1_example(self):
        # Paper Table 1 second example: a 3x3 matrix with rows [1 2 3],[4 5 6],[7 8 9]
        # (treated as factors), reduction over rows 0 and 2 collapses to [7 16 27].
        hierarchy = SystemHierarchy.from_cardinalities([1 * 4 * 7, 2 * 5 * 8, 3 * 6 * 9])
        axes = ParallelismAxes.of(1 * 2 * 3, 4 * 5 * 6, 7 * 8 * 9)
        matrix = ParallelismMatrix(hierarchy, axes, ((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        request = ReductionRequest.over(0, 2)
        collapsed = build_synthesis_hierarchy(
            matrix, request, HierarchyVariant.REDUCTION_COLLAPSED
        )
        assert collapsed.radices == (1, 7, 16, 27)  # root + the collapsed factors
        uncollapsed = build_synthesis_hierarchy(matrix, request, HierarchyVariant.REDUCTION)
        assert uncollapsed.radices == (1, 1, 2, 3, 7, 8, 9)


class TestVirtualDeviceMapping:
    def test_physical_device_mapping_respects_reduction_groups(
        self, figure2d_synthesis_hierarchy, figure2d_placement, shard_reduction
    ):
        hierarchy = figure2d_synthesis_hierarchy
        groups = figure2d_placement.reduction_groups(shard_reduction)
        # Each full sweep of the virtual devices for one free assignment is
        # exactly one reduction group, in group order.
        everyone = (tuple(range(hierarchy.num_virtual_devices)),)
        assert [list(group) for group in hierarchy.physical_groups(everyone)] == groups


FIGURE2_ENTRIES = (
    ((1, 1, 1, 4), (1, 2, 2, 1)),
    ((1, 1, 2, 2), (1, 2, 1, 2)),
    ((1, 2, 1, 2), (1, 1, 2, 2)),
    ((1, 2, 2, 1), (1, 1, 1, 4)),
)


class TestVirtualDevicesOnEveryFigure2Matrix:
    @pytest.mark.parametrize("variant", list(HierarchyVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize(
        "entries", FIGURE2_ENTRIES,
        ids=lambda e: "-".join("".join(map(str, row)) for row in e),
    )
    def test_virtual_devices_land_on_devices_with_their_digits(
        self, figure2_matrices, shard_reduction, entries, variant
    ):
        matrix = next(m for m in figure2_matrices if m.entries == entries)
        hierarchy = build_synthesis_hierarchy(matrix, shard_reduction, variant)
        placement = DevicePlacement(matrix)
        free_assignments = free_radix(hierarchy).size
        reached = []
        for virtual in range(hierarchy.num_virtual_devices):
            digits = hierarchy.virtual_to_position_digits(virtual)
            assert set(digits) == set(hierarchy.covered_positions)
            devices = [group[0] for group in hierarchy.physical_groups(((virtual,),))]
            # One physical device per free-digit assignment, each carrying the
            # virtual device's digit at every covered matrix position.
            assert len(devices) == free_assignments
            for device in devices:
                grid = placement.device_to_grid(device)
                assert all(grid[i][j] == digit for (i, j), digit in digits.items())
            reached.extend(devices)
        # Virtual devices times free assignments cover the machine exactly once.
        assert sorted(reached) == list(range(placement.num_devices))


class TestGoals:
    def test_reduction_variant_goal_is_full(self, figure2d_synthesis_hierarchy):
        goal = figure2d_synthesis_hierarchy.goal()
        assert all(s == DeviceState.full(4) for s in goal)

    def test_row_variant_goal_groups_by_non_reduction_axes(
        self, figure2d_matrix, shard_reduction
    ):
        hierarchy = build_synthesis_hierarchy(
            figure2d_matrix, shard_reduction, HierarchyVariant.ROW
        )
        goal = hierarchy.goal()
        # Each device's goal row has exactly 4 contributors (its shard group).
        for virtual in range(hierarchy.num_virtual_devices):
            assert bin(goal[virtual].rows[0]).count("1") == 4

    def test_initial_context(self, figure2d_synthesis_hierarchy):
        init = figure2d_synthesis_hierarchy.initial_context()
        assert len(init.states) == 4


class TestValidation:
    def test_level_radix_must_match_positions(self, figure2d_matrix, shard_reduction):
        good = build_synthesis_hierarchy(figure2d_matrix, shard_reduction)
        bad_levels = list(good.levels)
        bad_levels[2] = SynthesisLevel(
            name=bad_levels[2].name, radix=3, positions=bad_levels[2].positions
        )
        with pytest.raises(SynthesisError):
            SynthesisHierarchy(
                variant=good.variant,
                matrix=good.matrix,
                reduction_axes=good.reduction_axes,
                levels=tuple(bad_levels),
            )

    def test_duplicate_positions_rejected(self, figure2d_matrix, shard_reduction):
        good = build_synthesis_hierarchy(figure2d_matrix, shard_reduction)
        with pytest.raises(SynthesisError):
            SynthesisHierarchy(
                variant=good.variant,
                matrix=good.matrix,
                reduction_axes=good.reduction_axes,
                levels=good.levels + (good.levels[2],),
            )

    def test_reduction_axes_validated(self, figure2d_matrix):
        with pytest.raises(Exception):
            build_synthesis_hierarchy(figure2d_matrix, ReductionRequest.over(5))

    def test_describe(self, figure2d_synthesis_hierarchy):
        text = figure2d_synthesis_hierarchy.describe()
        assert "reduction-collapsed" in text

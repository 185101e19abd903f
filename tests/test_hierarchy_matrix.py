"""Tests for repro.hierarchy.matrix (parallelism-matrix enumeration, paper §3.1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import (
    ParallelismMatrix,
    count_naive_placements,
    enumerate_parallelism_matrices,
)
from repro.hierarchy.parallelism import ParallelismAxes


def _matrix(hierarchy, axes, entries):
    return ParallelismMatrix(hierarchy, axes, tuple(tuple(r) for r in entries))


class TestParallelismMatrixValidation:
    def test_valid_matrix(self, figure2a_hierarchy, figure2_axes):
        matrix = _matrix(figure2a_hierarchy, figure2_axes, [[1, 1, 2, 2], [1, 2, 1, 2]])
        assert matrix.num_rows == 2 and matrix.num_cols == 4
        assert matrix.num_devices == 16

    def test_column_product_must_match_hierarchy(self, figure2a_hierarchy, figure2_axes):
        with pytest.raises(PlacementError, match="column"):
            _matrix(figure2a_hierarchy, figure2_axes, [[1, 1, 2, 4], [1, 2, 1, 2]])

    def test_row_product_must_match_axis(self, figure2a_hierarchy, figure2_axes):
        with pytest.raises(PlacementError, match="row"):
            _matrix(figure2a_hierarchy, figure2_axes, [[1, 2, 2, 2], [1, 1, 1, 2]])

    def test_factor_below_one_rejected(self, figure2a_hierarchy, figure2_axes):
        with pytest.raises(PlacementError):
            _matrix(figure2a_hierarchy, figure2_axes, [[1, 1, 2, 0], [1, 2, 1, 2]])

    def test_wrong_row_count_rejected(self, figure2a_hierarchy, figure2_axes):
        with pytest.raises(PlacementError):
            _matrix(figure2a_hierarchy, figure2_axes, [[1, 2, 2, 4]])

    def test_wrong_column_count_rejected(self, figure2a_hierarchy, figure2_axes):
        with pytest.raises(PlacementError):
            _matrix(figure2a_hierarchy, figure2_axes, [[1, 1, 2], [1, 2, 2]])


class TestAccessorsAndFlattenings:
    @pytest.fixture
    def matrix(self, figure2a_hierarchy, figure2_axes):
        return _matrix(figure2a_hierarchy, figure2_axes, [[1, 1, 2, 2], [1, 2, 1, 2]])

    def test_row_column_factor(self, matrix):
        assert matrix.row(0) == (1, 1, 2, 2)
        assert matrix.column(3) == (2, 2)
        assert matrix.factor(1, 1) == 2

    def test_describe(self, matrix):
        assert matrix.describe() == "[[1 1 2 2] [1 2 1 2]]"


class TestEnumeration:
    def test_figure2_running_example_has_four_matrices(self, figure2_matrices):
        # Hierarchy [1 2 2 4] with axes [4 4]: exactly the placements of Figure 2
        # (the three shown there plus the fully-swapped one).
        descriptions = {m.describe() for m in figure2_matrices}
        assert len(figure2_matrices) == 4
        assert "[[1 2 2 1] [1 1 1 4]]" in descriptions  # Figure 2b
        assert "[[1 2 1 2] [1 1 2 2]]" in descriptions  # Figure 2c
        assert "[[1 1 2 2] [1 2 1 2]]" in descriptions  # Figure 2d

    def test_single_axis_enumeration(self):
        hierarchy = SystemHierarchy.from_cardinalities([4, 16], ["node", "gpu"])
        matrices = enumerate_parallelism_matrices(hierarchy, ParallelismAxes.of(64))
        assert [m.describe() for m in matrices] == ["[[4 16]]"]

    def test_two_axis_a100_example(self):
        hierarchy = SystemHierarchy.from_cardinalities([4, 16], ["node", "gpu"])
        matrices = enumerate_parallelism_matrices(hierarchy, ParallelismAxes.of(4, 16))
        descriptions = {m.describe() for m in matrices}
        # The three matrices of Table 3 row B.
        assert descriptions == {"[[1 4] [4 4]]", "[[2 2] [2 8]]", "[[4 1] [1 16]]"}

    def test_infeasible_total_returns_empty(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 8])
        assert enumerate_parallelism_matrices(hierarchy, ParallelismAxes.of(5)) == []

    def test_max_results_cap(self, figure2a_hierarchy, figure2_axes):
        capped = enumerate_parallelism_matrices(figure2a_hierarchy, figure2_axes, max_results=2)
        assert len(capped) == 2

    def test_all_results_unique_and_valid(self, figure2_matrices):
        descriptions = [m.describe() for m in figure2_matrices]
        assert len(set(descriptions)) == len(descriptions)

    @given(
        st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_brute_force_count(self, cards, num_axes):
        """Every enumerated matrix is valid, and the count matches a brute-force search."""
        hierarchy = SystemHierarchy.from_cardinalities(cards)
        total = hierarchy.num_devices
        # Split the total into num_axes axis sizes (greedy: all in axis 0).
        axes_sizes = [total] + [1] * (num_axes - 1)
        axes = ParallelismAxes(tuple(axes_sizes))
        matrices = enumerate_parallelism_matrices(hierarchy, axes)

        # Brute force over all digit assignments.
        from itertools import product as iproduct

        from repro.utils.factorization import ordered_factorizations

        per_column_options = [
            list(ordered_factorizations(c, num_axes)) for c in cards
        ]
        count = 0
        for combo in iproduct(*per_column_options):
            row_products = [
                math.prod(combo[j][i] for j in range(len(cards))) for i in range(num_axes)
            ]
            if row_products == axes_sizes:
                count += 1
        assert len(matrices) == count


class TestNaivePlacementCount:
    def test_matches_factorial(self):
        assert count_naive_placements(ParallelismAxes.of(4, 4)) == math.factorial(16)

    def test_paper_claim_more_than_2_to_44(self):
        # §2.1: (4*4)! > 2^44.
        assert count_naive_placements(ParallelismAxes.of(4, 4)) > 2**44

"""Tests for repro.hierarchy.parallelism (ParallelismAxes, ReductionRequest)."""

from __future__ import annotations

import pytest

from repro.errors import HierarchyError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest


class TestParallelismAxes:
    def test_default_names(self):
        axes = ParallelismAxes.of(4, 4)
        assert axes.names == ("data", "model")

    def test_many_axes_get_generated_names(self):
        axes = ParallelismAxes.of(2, 2, 2, 2, 2)
        assert axes.names[-1] == "axis4"

    def test_explicit_names(self):
        axes = ParallelismAxes.of(4, 2, names=("dp", "tp"))
        assert axes.names == ("dp", "tp")

    def test_total_parallelism(self):
        assert ParallelismAxes.of(4, 4).total_parallelism == 16
        assert ParallelismAxes.of(64).total_parallelism == 64

    def test_iteration_and_indexing(self):
        axes = ParallelismAxes.of(8, 2, 4)
        assert list(axes) == [8, 2, 4]
        assert axes[2] == 4
        assert len(axes) == 3

    def test_describe(self):
        assert ParallelismAxes.of(4, 4).describe() == "[data=4, model=4]"

    def test_rejects_empty(self):
        with pytest.raises(HierarchyError):
            ParallelismAxes(())

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(HierarchyError):
            ParallelismAxes.of(4, 0)

    def test_rejects_duplicate_names(self):
        with pytest.raises(HierarchyError):
            ParallelismAxes.of(2, 2, names=("a", "a"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(HierarchyError):
            ParallelismAxes.of(2, 2, names=("a",))


class TestReductionRequest:
    def test_axes_sorted_and_deduped_check(self):
        request = ReductionRequest.over(2, 0)
        assert request.axes == (0, 2)

    def test_rejects_duplicates(self):
        with pytest.raises(HierarchyError):
            ReductionRequest.over(0, 0)

    def test_rejects_empty(self):
        with pytest.raises(HierarchyError):
            ReductionRequest(())

    def test_rejects_negative_axis(self):
        with pytest.raises(HierarchyError):
            ReductionRequest.over(-1)

    def test_payload_is_not_a_request_field(self):
        # The payload belongs to the PlanQuery, never to the request.
        with pytest.raises(TypeError):
            ReductionRequest((0,), bytes_per_device=1)
        with pytest.raises(TypeError):
            ReductionRequest.over(0, bytes_per_device=1)

    def test_validate_against(self):
        axes = ParallelismAxes.of(4, 4)
        ReductionRequest.over(1).validate_against(axes)
        with pytest.raises(HierarchyError):
            ReductionRequest.over(2).validate_against(axes)

    def test_describe(self):
        axes = ParallelismAxes.of(4, 4, names=("data", "shard"))
        assert "shard" in ReductionRequest.over(1).describe(axes)
        assert "1" in ReductionRequest.over(1).describe()

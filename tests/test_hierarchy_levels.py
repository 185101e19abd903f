"""Tests for repro.hierarchy.levels (SystemHierarchy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HierarchyError
from repro.hierarchy.levels import Level, SystemHierarchy


class TestLevel:
    def test_valid(self):
        level = Level("gpu", 4)
        assert level.name == "gpu" and level.cardinality == 4

    def test_rejects_empty_name(self):
        with pytest.raises(HierarchyError):
            Level("", 4)

    def test_rejects_non_positive_cardinality(self):
        with pytest.raises(HierarchyError):
            Level("gpu", 0)


class TestConstruction:
    def test_from_pairs(self, figure2a_hierarchy):
        assert figure2a_hierarchy.names == ("rack", "server", "cpu", "gpu")
        assert figure2a_hierarchy.cardinalities == (1, 2, 2, 4)

    def test_from_cardinalities_default_names(self):
        h = SystemHierarchy.from_cardinalities([2, 8])
        assert h.names == ("level0", "level1")

    def test_from_cardinalities_with_names(self):
        h = SystemHierarchy.from_cardinalities([2, 8], ["node", "gpu"])
        assert h.names == ("node", "gpu")

    def test_name_length_mismatch(self):
        with pytest.raises(HierarchyError):
            SystemHierarchy.from_cardinalities([2, 8], ["only-one"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(HierarchyError):
            SystemHierarchy.from_pairs([("gpu", 2), ("gpu", 4)])

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(HierarchyError):
            SystemHierarchy(())


class TestQueries:
    def test_num_devices(self, figure2a_hierarchy):
        assert figure2a_hierarchy.num_devices == 16

    def test_len_iter_getitem(self, figure2a_hierarchy):
        assert len(figure2a_hierarchy) == 4
        assert [level.name for level in figure2a_hierarchy] == [
            "rack",
            "server",
            "cpu",
            "gpu",
        ]
        assert figure2a_hierarchy[3].cardinality == 4

    def test_describe(self, figure2a_hierarchy):
        assert figure2a_hierarchy.describe() == "[(rack, 1), (server, 2), (cpu, 2), (gpu, 4)]"


class TestDeviceAddressing:
    def test_roundtrip_all_devices(self, figure2a_hierarchy):
        for d in range(figure2a_hierarchy.num_devices):
            coords = figure2a_hierarchy.device_coordinates(d)
            assert figure2a_hierarchy.radix.encode(coords) == d

    def test_device_zero_is_all_zero(self, figure2a_hierarchy):
        assert figure2a_hierarchy.device_coordinates(0) == (0, 0, 0, 0)

    def test_ancestor_instance(self, figure2a_hierarchy):
        assert figure2a_hierarchy.ancestor_instance(13, 1) == (0, 1)
        assert figure2a_hierarchy.ancestor_instance(13, 2) == (0, 1, 1)

    def test_lowest_common_level(self, figure2a_hierarchy):
        # A0, A1 share rack, server and cpu (level 2).
        assert figure2a_hierarchy.lowest_common_level([0, 1]) == 2
        # A0, B0 share rack and server only (level 1).
        assert figure2a_hierarchy.lowest_common_level([0, 4]) == 1
        # A0, C0 share only the rack (level 0).
        assert figure2a_hierarchy.lowest_common_level([0, 8]) == 0
        # A single device shares everything with itself.
        assert figure2a_hierarchy.lowest_common_level([5]) == 3

    def test_lowest_common_level_needs_devices(self, figure2a_hierarchy):
        with pytest.raises(HierarchyError):
            figure2a_hierarchy.lowest_common_level([])

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_device_count_is_product(self, cards):
        h = SystemHierarchy.from_cardinalities(cards)
        product = 1
        for c in cards:
            product *= c
        assert h.num_devices == product
        # Round-trip a few device ids.
        for d in range(0, h.num_devices, max(1, h.num_devices // 7)):
            assert h.radix.encode(h.device_coordinates(d)) == d

"""Tests for repro.utils.mixed_radix."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HierarchyError
from repro.utils.mixed_radix import MixedRadix, decode, encode


class TestEncodeDecode:
    def test_simple_binary(self):
        assert encode((1, 0, 1), (2, 2, 2)) == 5
        assert decode(5, (2, 2, 2)) == (1, 0, 1)

    def test_most_significant_digit_first(self):
        # With radices (3, 4): value = d0 * 4 + d1.
        assert encode((2, 1), (3, 4)) == 9
        assert decode(9, (3, 4)) == (2, 1)

    def test_radix_one_levels_carry_no_information(self):
        assert encode((0, 3, 0), (1, 5, 1)) == 3
        assert decode(3, (1, 5, 1)) == (0, 3, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(HierarchyError):
            encode((1, 2), (2,))

    def test_digit_out_of_range_rejected(self):
        with pytest.raises(HierarchyError):
            encode((2,), (2,))

    def test_value_out_of_range_rejected(self):
        with pytest.raises(HierarchyError):
            decode(8, (2, 2, 2))
        with pytest.raises(HierarchyError):
            decode(-1, (2, 2))

    def test_zero_radix_rejected(self):
        with pytest.raises(HierarchyError):
            encode((0,), (0,))

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5), st.data())
    def test_roundtrip(self, radices, data):
        radices = tuple(radices)
        total = 1
        for r in radices:
            total *= r
        value = data.draw(st.integers(min_value=0, max_value=total - 1))
        assert encode(decode(value, radices), radices) == value


class TestMixedRadixClass:
    def test_size(self):
        assert MixedRadix((2, 3, 4)).size == 24

    def test_len(self):
        assert len(MixedRadix((2, 3))) == 2

    def test_iteration_order(self):
        mr = MixedRadix((2, 2))
        assert list(mr) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_iteration_covers_all_values(self):
        mr = MixedRadix((3, 2))
        seen = [mr.encode(digits) for digits in mr]
        assert seen == list(range(mr.size))

    def test_empty_radices_has_size_one(self):
        mr = MixedRadix(())
        assert mr.size == 1
        assert mr.encode(()) == 0
        assert mr.decode(0) == ()

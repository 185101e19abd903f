"""Tests for repro.utils.validation and repro.utils.tabulate."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, TopologyError
from repro.utils.tabulate import format_cell, format_table
from repro.utils.validation import check_positive_int, check_positive_ints


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ReproError):
            check_positive_int(0, "x")
        with pytest.raises(ReproError):
            check_positive_int(-1, "x")

    def test_rejects_bool_and_float(self):
        with pytest.raises(ReproError):
            check_positive_int(True, "x")
        with pytest.raises(ReproError):
            check_positive_int(1.5, "x")

    def test_custom_exception_type(self):
        with pytest.raises(TopologyError):
            check_positive_int(0, "x", TopologyError)


class TestCheckPositiveInts:
    def test_returns_tuple(self):
        assert check_positive_ints([1, 2, 3], "xs") == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            check_positive_ints([], "xs")

    def test_reports_offending_index(self):
        with pytest.raises(ReproError, match=r"xs\[1\]"):
            check_positive_ints([1, 0], "xs")


class TestFormatCell:
    def test_none_is_dash(self):
        assert format_cell(None) == "-"

    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_float_uses_format(self):
        assert format_cell(1.2345) == "1.23"
        assert format_cell(1.2345, "{:.3f}") == "1.234"

    def test_int_and_str(self):
        assert format_cell(7) == "7"
        assert format_cell("abc") == "abc"


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert lines[-1].endswith("4.00")

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

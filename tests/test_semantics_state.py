"""Tests for repro.semantics.state (DeviceState, StateContext)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SemanticsError
from repro.semantics.state import DeviceState, StateContext

from oracles.state import (
    context_from_mapping,
    is_subset,
    row_sets_disjoint,
    rows_disjoint,
    state_from_matrix,
    state_to_matrix,
    union,
)


def random_state(draw, num_chunks):
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << num_chunks) - 1),
            min_size=num_chunks,
            max_size=num_chunks,
        )
    )
    return DeviceState(num_chunks, tuple(rows))


class TestConstruction:
    def test_initial_state_has_own_column(self):
        state = DeviceState.initial(4, 2)
        assert state.rows == (0b0100,) * 4
        assert state.non_empty_rows == (0, 1, 2, 3)

    def test_full_state_default_everyone(self):
        state = DeviceState.full(3)
        assert state.rows == (0b111,) * 3

    def test_full_state_with_contributors(self):
        state = DeviceState.full(4, [0, 2])
        assert state.rows == (0b0101,) * 4

    def test_from_matrix_roundtrip(self):
        matrix = [[1, 0, 0], [0, 1, 1], [0, 0, 0]]
        state = state_from_matrix(matrix)
        assert state.rows == (0b001, 0b110, 0b000)
        assert np.array_equal(state_to_matrix(state), np.array(matrix, dtype=np.uint8))

    def test_from_matrix_rejects_non_square(self):
        with pytest.raises(SemanticsError):
            state_from_matrix([[1, 0], [0, 1], [0, 0]])

    def test_from_matrix_rejects_non_binary(self):
        with pytest.raises(SemanticsError):
            state_from_matrix([[2, 0], [0, 1]])

    def test_rejects_out_of_range_device(self):
        with pytest.raises(SemanticsError):
            DeviceState.initial(4, 4)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(SemanticsError):
            DeviceState(3, (0, 0))

    def test_rejects_mask_outside_range(self):
        with pytest.raises(SemanticsError):
            DeviceState(2, (0b100, 0))


def _same(packed: DeviceState, validated: DeviceState) -> bool:
    return (
        packed == validated
        and (packed.num_chunks, packed.bits, packed.present)
        == (validated.num_chunks, validated.bits, validated.present)
        and hash(packed) == hash(validated)
    )


def _outcome(build):
    """What ``build`` returned, or the exception type and message it raised."""
    try:
        return build()
    except (SemanticsError, ValueError, OverflowError) as error:
        return type(error), str(error)


class TestUniformStatesArePackedDirectly:
    """``initial`` / ``full`` against the validating row constructor."""

    @pytest.mark.parametrize("num_chunks", [1, 2, 7, 63, 64, 65])
    def test_initial_on_every_device(self, num_chunks):
        for device in range(num_chunks):
            state = DeviceState.initial(num_chunks, device)
            assert _same(state, DeviceState(num_chunks, (1 << device,) * num_chunks))
            assert state.non_empty_rows == tuple(range(num_chunks))
            assert state.rows[num_chunks - 1] == 1 << device

    def test_every_size_up_to_70(self):
        for k in range(1, 71):
            assert _same(DeviceState.full(k), DeviceState(k, ((1 << k) - 1,) * k))
            for device in {0, k // 2, k - 1}:
                assert _same(
                    DeviceState.initial(k, device), DeviceState(k, (1 << device,) * k)
                )
            for contributors in ([], [0], [k - 1], range(0, k, 2), range(k), [0, 0]):
                mask = sum(1 << c for c in set(contributors))
                assert _same(
                    DeviceState.full(k, contributors), DeviceState(k, (mask,) * k)
                )

    def test_out_of_range_arguments_raise_what_the_row_constructor_raised(self):
        def initial(k, device):
            # The factory as it was: a range check, then the validating constructor.
            if not 0 <= device < k:
                raise SemanticsError(f"device {device} out of range for {k} devices")
            return DeviceState(k, (1 << device,) * k)

        def full(k, contributors):
            if contributors is None:
                mask = (1 << k) - 1
            else:
                mask = 0
                for c in contributors:
                    if not 0 <= c < k:
                        raise SemanticsError(f"contributor {c} out of range")
                    mask |= 1 << c
            return DeviceState(k, (mask,) * k)

        for k in (-2, -1, 0, 1, 3):
            for device in (-1, 0, k - 1, k, k + 5):
                assert _outcome(lambda: DeviceState.initial(k, device)) == _outcome(
                    lambda: initial(k, device)
                )
            for contributors in (None, [], [0], [-1], [k], [0, k + 1]):
                assert _outcome(lambda: DeviceState.full(k, contributors)) == _outcome(
                    lambda: full(k, contributors)
                )
        with pytest.raises(SemanticsError, match="num_chunks must be >= 1"):
            DeviceState(0, (0,) * 0)
        with pytest.raises(SemanticsError, match="out of range"):
            DeviceState.initial(0, 0)


class TestQueries:
    def test_non_empty_rows_and_fraction(self):
        state = DeviceState(4, (0b1, 0, 0b1, 0))
        assert state.non_empty_rows == (0, 2)
        assert state.chunk_fraction() == pytest.approx(0.5)

class TestAlgebra:
    def test_union(self):
        a = DeviceState(2, (0b01, 0b01))
        b = DeviceState(2, (0b10, 0b10))
        assert union(a, b).rows == (0b11, 0b11)

    def test_union_size_mismatch(self):
        with pytest.raises(SemanticsError):
            union(DeviceState(2, (0,) * 2), DeviceState(3, (0,) * 3))

    def test_subset_relations(self):
        small = DeviceState(2, (0b01, 0))
        big = DeviceState(2, (0b11, 0b01))
        assert is_subset(small, big)
        assert not is_subset(big, small)
        assert is_subset(big, big)

    def test_rows_disjoint_with(self):
        a = DeviceState(2, (0b01, 0b01))
        b = DeviceState(2, (0b10, 0b10))
        c = DeviceState(2, (0b01, 0b10))
        assert rows_disjoint(a, b)
        assert not rows_disjoint(a, c)

    def test_row_sets_disjoint_with(self):
        a = DeviceState(3, (0b1, 0, 0))
        b = DeviceState(3, (0, 0b1, 0))
        c = DeviceState(3, (0b10, 0, 0))
        assert row_sets_disjoint(a, b)
        assert not row_sets_disjoint(a, c)

    @given(st.data())
    @settings(max_examples=50)
    def test_union_is_commutative_and_monotone(self, data):
        num_chunks = data.draw(st.integers(min_value=1, max_value=5))
        a = random_state(data.draw, num_chunks)
        b = random_state(data.draw, num_chunks)
        assert union(a, b) == union(b, a)
        assert is_subset(a, union(a, b))
        assert is_subset(b, union(a, b))


class TestStateContext:
    def test_from_mapping_requires_contiguous_devices(self):
        states = {0: DeviceState.initial(2, 0), 1: DeviceState.initial(2, 1)}
        context = context_from_mapping(states)
        assert len(context.states) == 2
        with pytest.raises(SemanticsError):
            context_from_mapping({0: DeviceState.initial(2, 0), 2: DeviceState.initial(2, 1)})

    def test_replace_returns_new_context(self):
        context = StateContext((DeviceState.initial(2, 0), DeviceState.initial(2, 1)))
        new = context.replace({1: DeviceState.full(2)})
        assert new is not context
        assert context[1] == DeviceState.initial(2, 1)
        assert new[1] == DeviceState.full(2)

    def test_replace_validates_device_and_size(self):
        context = StateContext((DeviceState.initial(2, 0), DeviceState.initial(2, 1)))
        with pytest.raises(SemanticsError):
            context.replace({5: DeviceState.full(2)})
        with pytest.raises(SemanticsError):
            context.replace({0: DeviceState.full(3)})

    def test_mixed_sizes_rejected(self):
        with pytest.raises(SemanticsError):
            StateContext((DeviceState(2, (0,) * 2), DeviceState(3, (0,) * 3)))

    def test_empty_context_rejected(self):
        with pytest.raises(SemanticsError):
            StateContext(())

    def test_iteration(self):
        context = StateContext((DeviceState.initial(2, 0), DeviceState.initial(2, 1)))
        assert list(context) == list(context.states)

"""Tests for the Hoare-triple semantics of collectives (paper Figure 8)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidCollectiveError, SemanticsError
from repro.semantics.collectives import (
    ALL_COLLECTIVES,
    Collective,
    TRAFFIC_PROFILES,
    apply_collective,
)
from repro.semantics.state import DeviceState

from oracles.dsl import collective_is_valid
from oracles.state import is_subset, union


def initial(num, device):
    return DeviceState.initial(num, device)


class TestAllReduce:
    def test_two_fresh_devices(self):
        post = apply_collective(Collective.ALL_REDUCE, [initial(4, 0), initial(4, 1)])
        expected = DeviceState(4, (0b0011,) * 4)
        assert post == [expected, expected]

    def test_rejects_mismatched_rows(self):
        a = DeviceState(4, (0b1, 0b1, 0, 0))
        b = DeviceState(4, (0b10, 0, 0b10, 0))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_REDUCE, [a, b])

    def test_rejects_double_reduction(self):
        # Figure 4b: the devices already share a contribution; reducing again
        # would fold the same data twice.
        shared = DeviceState(4, (0b0101,) * 4)
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_REDUCE, [shared, shared])

    def test_rejects_empty_group_data(self):
        with pytest.raises(InvalidCollectiveError):
            apply_collective(
                Collective.ALL_REDUCE, [DeviceState(4, (0,) * 4), DeviceState(4, (0,) * 4)]
            )

    def test_three_way(self):
        post = apply_collective(
            Collective.ALL_REDUCE, [initial(3, 0), initial(3, 1), initial(3, 2)]
        )
        assert all(s == DeviceState.full(3) for s in post)


class TestReduceScatter:
    def test_scatters_contiguous_blocks(self):
        post = apply_collective(Collective.REDUCE_SCATTER, [initial(4, 0), initial(4, 1)])
        # 4 chunks over 2 devices: device 0 keeps chunks 0-1, device 1 keeps 2-3.
        assert post[0].non_empty_rows == (0, 1)
        assert post[1].non_empty_rows == (2, 3)
        assert post[0].rows[0] == 0b0011

    def test_requires_divisible_chunks(self):
        with pytest.raises(InvalidCollectiveError):
            apply_collective(
                Collective.REDUCE_SCATTER, [initial(3, 0), initial(3, 1)]
            )

    def test_same_preconditions_as_allreduce(self):
        a = DeviceState(4, (0b1, 0b1, 0, 0))
        b = DeviceState(4, (0b10, 0, 0b10, 0))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.REDUCE_SCATTER, [a, b])


class TestAllGather:
    def test_gathers_disjoint_rows(self):
        a = DeviceState(4, (0b11, 0b11, 0, 0))
        b = DeviceState(4, (0, 0, 0b11, 0b11))
        post = apply_collective(Collective.ALL_GATHER, [a, b])
        assert post[0] == post[1] == DeviceState(4, (0b11,) * 4)

    def test_rejects_overlapping_rows(self):
        a = DeviceState(4, (0b1, 0b1, 0, 0))
        b = DeviceState(4, (0b10, 0, 0b10, 0))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_GATHER, [a, b])

    def test_rejects_unequal_row_counts(self):
        a = DeviceState(4, (0b1, 0, 0, 0))
        b = DeviceState(4, (0, 0b10, 0b10, 0))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_GATHER, [a, b])

    def test_rejects_empty_member(self):
        a = DeviceState(4, (0b1, 0b1, 0b1, 0b1))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_GATHER, [a, DeviceState(4, (0,) * 4)])


class TestReduce:
    def test_root_takes_all_others_cleared(self):
        post = apply_collective(Collective.REDUCE, [initial(2, 0), initial(2, 1)])
        assert post[0] == DeviceState.full(2)
        assert post[1] == DeviceState(2, (0,) * 2)

    def test_root_is_first_group_member(self):
        post = apply_collective(Collective.REDUCE, [initial(2, 1), initial(2, 0)])
        assert post[0] == DeviceState.full(2)  # first listed device is the root
        assert post[1] == DeviceState(2, (0,) * 2)


class TestBroadcast:
    def test_overwrites_with_root_state(self):
        root = DeviceState.full(2)
        other = DeviceState(2, (0,) * 2)
        post = apply_collective(Collective.BROADCAST, [root, other])
        assert post == [root, root]

    def test_rejects_root_missing_information(self):
        root = DeviceState(2, (0b01, 0b01))
        other = DeviceState(2, (0b10, 0b10))
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.BROADCAST, [root, other])

    def test_rejects_no_information_increase(self):
        root = DeviceState.full(2)
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.BROADCAST, [root, root])

    def test_rejects_empty_root(self):
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.BROADCAST, [DeviceState(2, (0,) * 2), DeviceState(2, (0,) * 2)])


class TestGroupValidation:
    def test_single_device_group_rejected(self):
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_REDUCE, [initial(2, 0)])

    def test_size_mismatch_rejected(self):
        with pytest.raises(SemanticsError):
            apply_collective(Collective.ALL_REDUCE, [initial(2, 0), initial(3, 1)])

    def test_boolean_precondition_check(self):
        states = [initial(2, 0), initial(2, 1)]
        apply_collective(Collective.ALL_REDUCE, states)
        assert collective_is_valid(Collective.ALL_REDUCE, states)
        assert not collective_is_valid(Collective.ALL_REDUCE, [states[0], states[0]])


class TestPaperFigure4:
    """The two semantically invalid programs of Figure 4 must be rejected."""

    def test_reducescatter_then_allreduce_same_pair_is_invalid(self):
        # Figure 4a: after ReduceScatter between A0/A1, their chunk sets differ,
        # so a second AllReduce between them violates the equal-rows premise.
        a0, a1 = initial(4, 0), initial(4, 1)
        post = apply_collective(Collective.REDUCE_SCATTER, [a0, a1])
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_REDUCE, post)

    def test_allreduce_twice_same_pair_is_invalid(self):
        # Figure 4b: reducing A0 and C0 twice folds the same data twice.
        a0, c0 = initial(4, 0), initial(4, 2)
        post = apply_collective(Collective.ALL_REDUCE, [a0, c0])
        with pytest.raises(InvalidCollectiveError):
            apply_collective(Collective.ALL_REDUCE, post)


class TestCollectiveEnum:
    def test_is_rooted(self):
        assert Collective.REDUCE.is_rooted and Collective.BROADCAST.is_rooted
        assert not Collective.ALL_REDUCE.is_rooted


class TestTrafficProfiles:
    def test_ring_allreduce_volume(self):
        ar = TRAFFIC_PROFILES[Collective.ALL_REDUCE]
        assert ar.ring_bytes_on_wire(100.0, 4) == pytest.approx(150.0)
        assert ar.tree_bytes_on_wire(100.0, 4) == pytest.approx(200.0)

    def test_latency_steps(self):
        ar = TRAFFIC_PROFILES[Collective.ALL_REDUCE]
        assert ar.latency_steps_ring(4) == 6
        assert ar.latency_steps_tree(4) == 4
        rs = TRAFFIC_PROFILES[Collective.REDUCE_SCATTER]
        assert rs.latency_steps_ring(4) == 3

    @given(st.sampled_from(ALL_COLLECTIVES), st.integers(min_value=2, max_value=64),
           st.floats(min_value=1.0, max_value=1e9))
    @settings(max_examples=60)
    def test_volumes_are_non_negative_and_finite(self, op, group, payload):
        profile = TRAFFIC_PROFILES[op]
        assert profile.ring_bytes_on_wire(payload, group) >= 0
        assert profile.tree_bytes_on_wire(payload, group) >= 0
        assert profile.latency_steps_ring(group) >= 1
        assert profile.latency_steps_tree(group) >= 1


class TestSemanticProperties:
    """Property-based invariants of the Hoare rules."""

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_allreduce_from_initial_is_full(self, group_size):
        states = [initial(group_size, d) for d in range(group_size)]
        post = apply_collective(Collective.ALL_REDUCE, states)
        assert all(s == DeviceState.full(group_size) for s in post)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_reduce_scatter_then_all_gather_equals_all_reduce(self, group_size):
        states = [initial(group_size, d) for d in range(group_size)]
        ar = apply_collective(Collective.ALL_REDUCE, list(states))
        rs = apply_collective(Collective.REDUCE_SCATTER, list(states))
        ag = apply_collective(Collective.ALL_GATHER, rs)
        assert ag == ar

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_reduce_then_broadcast_equals_all_reduce(self, group_size):
        states = [initial(group_size, d) for d in range(group_size)]
        ar = apply_collective(Collective.ALL_REDUCE, list(states))
        r = apply_collective(Collective.REDUCE, list(states))
        b = apply_collective(Collective.BROADCAST, r)
        assert b == ar

    @given(st.integers(min_value=2, max_value=6), st.sampled_from(list(ALL_COLLECTIVES)))
    @settings(max_examples=40)
    def test_total_information_never_decreases_except_clearing(self, group_size, op):
        """The union of all contributions over the group never gains spurious bits."""
        states = [initial(group_size, d) for d in range(group_size)]
        try:
            post = apply_collective(op, list(states))
        except InvalidCollectiveError:
            return
        union_before = states[0]
        for s in states[1:]:
            union_before = union(union_before, s)
        union_after = post[0]
        for s in post[1:]:
            union_after = union(union_after, s)
        assert is_subset(union_after, union_before) or is_subset(union_before, union_after)

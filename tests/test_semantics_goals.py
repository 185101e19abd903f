"""Tests for repro.semantics.goals."""

from __future__ import annotations

import pytest

from repro.errors import SemanticsError
from repro.semantics.goals import all_reduce_goal, goal_context, initial_context
from repro.semantics.state import DeviceState


class TestInitialContext:
    def test_each_device_holds_only_its_own_column(self):
        context = initial_context(3)
        for device in range(3):
            assert context[device] == DeviceState.initial(3, device)

    def test_single_device(self):
        context = initial_context(1)
        assert len(context.states) == 1

    def test_rejects_zero_devices(self):
        with pytest.raises(SemanticsError):
            initial_context(0)


class TestGoalContext:
    def test_all_reduce_goal_is_full_matrix(self):
        goal = all_reduce_goal(3)
        assert all(state == DeviceState.full(3) for state in goal)

    def test_grouped_goal(self):
        goal = goal_context(4, [[0, 1], [2, 3]])
        assert goal[0] == DeviceState.full(4, [0, 1])
        assert goal[3] == DeviceState.full(4, [2, 3])

    def test_groups_must_partition(self):
        with pytest.raises(SemanticsError):
            goal_context(4, [[0, 1], [1, 2, 3]])  # device 1 twice
        with pytest.raises(SemanticsError):
            goal_context(4, [[0, 1]])  # 2 and 3 missing
        with pytest.raises(SemanticsError):
            goal_context(4, [[0, 1], [2, 5]])  # out of range

    def test_singleton_groups_allowed(self):
        goal = goal_context(3, [[0], [1, 2]])
        assert goal[0] == DeviceState.full(3, [0])
        # A singleton group's goal equals its initial state.
        assert goal[0] == DeviceState.initial(3, 0)

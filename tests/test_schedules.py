"""Tests for the chunk-level ring/tree schedule oracle (``tests/oracles/schedules``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.nccl import NCCLAlgorithm, bytes_on_wire
from repro.errors import ReproError, RuntimeExecutionError
from repro.runtime.cluster import SimCluster
from repro.runtime.executor import CollectiveExecutor
from repro.semantics.collectives import Collective

from oracles.schedules import (
    build_ring_schedule,
    build_tree_schedule,
    execute_schedule,
    schedule_statistics,
)
from oracles.schedules.executor import ScheduleExecutor
from oracles.schedules.transfer import CollectiveSchedule, ScheduleRound, Transfer


class TestScheduleDataModel:
    def test_transfer_validation(self):
        with pytest.raises(ReproError):
            Transfer(0, 0, 0, True)
        with pytest.raises(ReproError):
            Transfer(-1, 0, 0, True)

    def test_round_rejects_duplicate_destination_block(self):
        with pytest.raises(ReproError):
            ScheduleRound((Transfer(0, 2, 1, True), Transfer(1, 2, 1, True)))

    def test_schedule_validation(self):
        with pytest.raises(ReproError):
            CollectiveSchedule(Collective.ALL_REDUCE, 1, 1, ())
        with pytest.raises(ReproError):
            CollectiveSchedule(
                Collective.ALL_REDUCE, 2, 1,
                (ScheduleRound((Transfer(0, 5, 0, True),)),),
            )
        with pytest.raises(ReproError):
            CollectiveSchedule(
                Collective.ALL_REDUCE, 2, 1,
                (ScheduleRound((Transfer(0, 1, 3, True),)),),
            )

    def test_member_result_blocks_defaults_to_all(self):
        schedule = build_ring_schedule(Collective.ALL_REDUCE, 4)
        assert schedule.member_result_blocks(2) == (0, 1, 2, 3)

    def test_describe_and_statistics(self):
        schedule = build_ring_schedule(Collective.ALL_REDUCE, 4)
        assert "ring" in schedule.describe()
        stats = schedule_statistics(schedule)
        assert stats.num_rounds == 6
        assert stats.max_blocks_sent == 6  # 2(g-1) blocks of size n/g


class TestRingScheduleShapes:
    @pytest.mark.parametrize("group_size", [2, 3, 4, 8])
    def test_allreduce_round_and_transfer_counts(self, group_size):
        schedule = build_ring_schedule(Collective.ALL_REDUCE, group_size)
        assert schedule.num_rounds == 2 * (group_size - 1)
        assert schedule.num_transfers == 2 * (group_size - 1) * group_size

    @pytest.mark.parametrize("group_size", [2, 4, 8])
    def test_ring_bytes_match_cost_model(self, group_size):
        """The schedule's per-device send volume equals the alpha-beta factor.

        The cost model expresses AllGather traffic in terms of the per-device
        *input* shard, while the schedule's blocks partition the full gathered
        payload, so the AllGather comparison converts between the two.
        """
        payload = 1024.0
        for op in (Collective.ALL_REDUCE, Collective.REDUCE_SCATTER, Collective.ALL_GATHER):
            schedule = build_ring_schedule(op, group_size)
            stats = schedule_statistics(schedule)
            scheduled = stats.bytes_sent_per_device(payload, schedule.num_blocks)
            model_payload = payload / group_size if op == Collective.ALL_GATHER else payload
            model = bytes_on_wire(op, NCCLAlgorithm.RING, group_size, model_payload)
            assert scheduled == pytest.approx(model)

    def test_reduce_scatter_declares_owners(self):
        schedule = build_ring_schedule(Collective.REDUCE_SCATTER, 4)
        owners = [schedule.member_result_blocks(i) for i in range(4)]
        assert sorted(block for blocks in owners for block in blocks) == [0, 1, 2, 3]

    def test_chain_collectives(self):
        reduce = build_ring_schedule(Collective.REDUCE, 4, num_blocks=2)
        assert reduce.member_result_blocks(0) == (0, 1)
        assert reduce.member_result_blocks(3) == ()
        broadcast = build_ring_schedule(Collective.BROADCAST, 4, num_blocks=2)
        assert broadcast.num_rounds == 3

    def test_too_small_group_rejected(self):
        with pytest.raises(ReproError):
            build_ring_schedule(Collective.ALL_REDUCE, 1)


class TestTreeScheduleShapes:
    @pytest.mark.parametrize("group_size", [2, 3, 4, 5, 8])
    def test_reduce_depth_logarithmic(self, group_size):
        import math

        schedule = build_tree_schedule(Collective.REDUCE, group_size)
        assert schedule.num_rounds <= max(1, math.ceil(math.log2(group_size)))

    def test_allreduce_is_reduce_plus_broadcast(self):
        allreduce = build_tree_schedule(Collective.ALL_REDUCE, 8)
        reduce = build_tree_schedule(Collective.REDUCE, 8)
        broadcast = build_tree_schedule(Collective.BROADCAST, 8)
        assert allreduce.num_rounds == reduce.num_rounds + broadcast.num_rounds

    def test_unsupported_collectives_rejected(self):
        with pytest.raises(ReproError):
            build_tree_schedule(Collective.REDUCE_SCATTER, 4)
        with pytest.raises(ReproError):
            build_tree_schedule(Collective.ALL_GATHER, 4)


class TestScheduleExecution:
    """Schedules must compute exactly what the collective-level executor computes."""

    def _clusters(self, num_devices):
        a = SimCluster.create(num_devices, elems_per_chunk=2, seed=5)
        b = SimCluster.create(num_devices, elems_per_chunk=2, seed=5)
        return a, b

    @pytest.mark.parametrize("group_size", [2, 3, 4, 8])
    def test_ring_allreduce_matches_collective(self, group_size):
        scheduled, reference = self._clusters(group_size)
        group = list(range(group_size))
        execute_schedule(build_ring_schedule(Collective.ALL_REDUCE, group_size), scheduled, group)
        CollectiveExecutor(reference).all_reduce(group)
        for device in group:
            np.testing.assert_allclose(
                scheduled[device].full_payload(), reference[device].full_payload()
            )

    @pytest.mark.parametrize("group_size", [2, 4, 8])
    def test_tree_allreduce_matches_collective(self, group_size):
        scheduled, reference = self._clusters(group_size)
        group = list(range(group_size))
        execute_schedule(
            build_tree_schedule(Collective.ALL_REDUCE, group_size, num_blocks=group_size),
            scheduled,
            group,
        )
        CollectiveExecutor(reference).all_reduce(group)
        for device in group:
            np.testing.assert_allclose(
                scheduled[device].full_payload(), reference[device].full_payload()
            )

    @pytest.mark.parametrize("group_size", [2, 4])
    def test_ring_reduce_scatter_produces_disjoint_reduced_blocks(self, group_size):
        cluster, _ = self._clusters(group_size)
        group = list(range(group_size))
        expected = cluster.expected_reduction(group)
        execute_schedule(
            build_ring_schedule(Collective.REDUCE_SCATTER, group_size), cluster, group
        )
        owned = []
        for device in group:
            chunks = cluster[device].sorted_valid_chunks
            assert len(chunks) == 1
            owned.extend(chunks)
            for chunk in chunks:
                elems = cluster[device].chunk_elems
                np.testing.assert_allclose(
                    cluster[device].chunk(chunk), expected[chunk * elems : (chunk + 1) * elems]
                )
        assert sorted(owned) == list(range(group_size))

    def test_ring_reduce_and_tree_broadcast_round_trip(self):
        cluster, reference = self._clusters(4)
        group = [0, 1, 2, 3]
        expected = cluster.expected_reduction(group)
        execute_schedule(build_tree_schedule(Collective.REDUCE, 4, num_blocks=4), cluster, group)
        assert cluster[0].num_valid_chunks == 4
        assert cluster[1].num_valid_chunks == 0
        execute_schedule(build_tree_schedule(Collective.BROADCAST, 4, num_blocks=4), cluster, group)
        for device in group:
            np.testing.assert_allclose(cluster[device].full_payload(), expected)

    def test_ring_chain_reduce_matches_collective(self):
        scheduled, reference = self._clusters(4)
        group = [0, 1, 2, 3]
        execute_schedule(build_ring_schedule(Collective.REDUCE, 4, num_blocks=4), scheduled, group)
        CollectiveExecutor(reference).reduce(group)
        np.testing.assert_allclose(scheduled[0].full_payload(), reference[0].full_payload())
        assert scheduled[1].num_valid_chunks == reference[1].num_valid_chunks == 0

    def test_executor_argument_validation(self):
        cluster, _ = self._clusters(4)
        schedule = build_ring_schedule(Collective.ALL_REDUCE, 4)
        executor = ScheduleExecutor(cluster)
        with pytest.raises(RuntimeExecutionError):
            executor.execute(schedule, [0, 1])
        with pytest.raises(RuntimeExecutionError):
            executor.execute(schedule, [0, 1, 2, 2])
        with pytest.raises(RuntimeExecutionError):
            executor.execute(schedule, [0, 1, 2, 9])

    def test_block_partition_divisibility_checked(self):
        cluster = SimCluster.create(3, elems_per_chunk=1)
        schedule = build_ring_schedule(Collective.ALL_REDUCE, 2)
        with pytest.raises(RuntimeExecutionError):
            ScheduleExecutor(cluster).execute(schedule, [0, 1])

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_ring_allreduce_property(self, group_size):
        cluster = SimCluster.create(group_size, elems_per_chunk=1, seed=group_size)
        group = list(range(group_size))
        expected = cluster.expected_reduction(group)
        execute_schedule(build_ring_schedule(Collective.ALL_REDUCE, group_size), cluster, group)
        for device in group:
            np.testing.assert_allclose(cluster[device].full_payload(), expected)

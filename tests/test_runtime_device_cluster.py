"""Tests for repro.runtime.device and repro.runtime.cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RuntimeExecutionError
from repro.runtime.cluster import SimCluster
from repro.runtime.device import SimDevice


class TestSimDevice:
    def make(self, num_chunks=4, chunk_elems=2, device_id=0):
        data = np.arange(num_chunks * chunk_elems, dtype=np.float64)
        return SimDevice.with_data(device_id, num_chunks, chunk_elems, data)

    def test_with_data_all_chunks_valid(self):
        device = self.make()
        assert device.num_valid_chunks == 4
        assert device.sorted_valid_chunks == (0, 1, 2, 3)

    def test_with_data_shape_checked(self):
        with pytest.raises(RuntimeExecutionError):
            SimDevice.with_data(0, 4, 2, np.zeros(7))

    def test_chunk_access_and_mutation(self):
        device = self.make()
        np.testing.assert_array_equal(device.chunk(1), [2.0, 3.0])
        device.set_chunk(1, np.array([9.0, 9.0]))
        np.testing.assert_array_equal(device.chunk(1), [9.0, 9.0])

    def test_chunk_is_a_copy(self):
        device = self.make()
        chunk = device.chunk(0)
        chunk[0] = 123.0
        assert device.chunk(0)[0] != 123.0

    def test_chunk_range_checked(self):
        device = self.make()
        with pytest.raises(RuntimeExecutionError):
            device.chunk(4)
        with pytest.raises(RuntimeExecutionError):
            device.set_chunk(-1, np.zeros(2))

    def test_set_chunk_shape_checked(self):
        device = self.make()
        with pytest.raises(RuntimeExecutionError):
            device.set_chunk(0, np.zeros(3))

    def test_invalidate(self):
        device = self.make()
        device.invalidate([1, 3])
        assert device.sorted_valid_chunks == (0, 2)

    def test_set_chunk_invalid_flag(self):
        device = self.make()
        device.set_chunk(2, np.zeros(2), valid=False)
        assert 2 not in device.valid_chunks

    def test_full_payload_requires_all_chunks(self):
        device = self.make()
        assert device.full_payload().shape == (8,)
        device.invalidate([0])
        with pytest.raises(RuntimeExecutionError):
            device.full_payload()


class TestSimCluster:
    def test_create_shapes(self):
        cluster = SimCluster.create(4, elems_per_chunk=3)
        assert cluster.num_devices == 4
        assert all(d.num_chunks == 4 and d.chunk_elems == 3 for d in cluster.devices)
        assert cluster.initial_payloads.shape == (4, 12)

    def test_deterministic_with_seed(self):
        a = SimCluster.create(3, seed=7)
        b = SimCluster.create(3, seed=7)
        np.testing.assert_array_equal(a.initial_payloads, b.initial_payloads)

    def test_custom_init(self):
        cluster = SimCluster.create(2, elems_per_chunk=2, init=lambda d: np.full(4, float(d)))
        np.testing.assert_array_equal(cluster[1].full_payload(), np.full(4, 1.0))

    def test_custom_init_shape_checked(self):
        with pytest.raises(RuntimeExecutionError):
            SimCluster.create(2, elems_per_chunk=2, init=lambda d: np.zeros(3))

    def test_invalid_arguments(self):
        with pytest.raises(RuntimeExecutionError):
            SimCluster.create(0)
        with pytest.raises(RuntimeExecutionError):
            SimCluster.create(2, elems_per_chunk=0)

    def test_expected_reduction(self):
        cluster = SimCluster.create(3, elems_per_chunk=1, init=lambda d: np.full(3, float(d + 1)))
        np.testing.assert_array_equal(cluster.expected_reduction([0, 2]), np.full(3, 4.0))
        with pytest.raises(RuntimeExecutionError):
            cluster.expected_reduction([5])

    def test_iteration(self):
        cluster = SimCluster.create(2)
        assert list(cluster) == list(cluster.devices)

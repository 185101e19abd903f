"""Tests for the in-memory collective executor and numerical verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.baselines.hierarchical import reduce_allreduce_broadcast
from repro.errors import RuntimeExecutionError, VerificationError
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.hierarchy.levels import SystemHierarchy
from repro.runtime.cluster import SimCluster
from repro.runtime.executor import CollectiveExecutor, execute_program
from repro.runtime.verification import verify_against_placement, verify_program
from repro.semantics.collectives import Collective
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import LoweredProgram, LoweredStep, lower_synthesized
from repro.synthesis.synthesizer import synthesize_programs


class TestIndividualCollectives:
    def test_all_reduce_sums_buffers(self):
        cluster = SimCluster.create(2, elems_per_chunk=2, init=lambda d: np.full(4, float(d + 1)))
        CollectiveExecutor(cluster).all_reduce([0, 1])
        np.testing.assert_array_equal(cluster[0].full_payload(), np.full(4, 3.0))
        np.testing.assert_array_equal(cluster[1].full_payload(), np.full(4, 3.0))

    def test_reduce_scatter_keeps_contiguous_blocks(self):
        cluster = SimCluster.create(2, elems_per_chunk=1, init=lambda d: np.arange(2, dtype=float))
        CollectiveExecutor(cluster).reduce_scatter([0, 1])
        assert cluster[0].sorted_valid_chunks == (0,)
        assert cluster[1].sorted_valid_chunks == (1,)
        np.testing.assert_array_equal(cluster[0].chunk(0), [0.0])
        np.testing.assert_array_equal(cluster[1].chunk(1), [2.0])

    def test_all_gather_restores_full_payload(self):
        cluster = SimCluster.create(2, elems_per_chunk=1)
        executor = CollectiveExecutor(cluster)
        executor.reduce_scatter([0, 1])
        executor.all_gather([0, 1])
        assert cluster[0].num_valid_chunks == 2
        np.testing.assert_array_equal(cluster[0].full_payload(), cluster[1].full_payload())

    def test_reduce_clears_non_roots(self):
        cluster = SimCluster.create(2, elems_per_chunk=1)
        CollectiveExecutor(cluster).reduce([0, 1])
        assert cluster[0].num_valid_chunks == 2
        assert cluster[1].num_valid_chunks == 0

    def test_broadcast_copies_root(self):
        cluster = SimCluster.create(2, elems_per_chunk=1)
        executor = CollectiveExecutor(cluster)
        executor.reduce([0, 1])
        executor.broadcast([0, 1])
        np.testing.assert_array_equal(cluster[0].full_payload(), cluster[1].full_payload())

    def test_group_validation(self):
        cluster = SimCluster.create(3)
        executor = CollectiveExecutor(cluster)
        with pytest.raises(RuntimeExecutionError):
            executor.all_reduce([0])
        with pytest.raises(RuntimeExecutionError):
            executor.all_reduce([0, 0])
        with pytest.raises(RuntimeExecutionError):
            executor.all_reduce([0, 7])

    def test_mismatched_chunk_sets_rejected(self):
        cluster = SimCluster.create(4, elems_per_chunk=1)
        executor = CollectiveExecutor(cluster)
        executor.reduce_scatter([0, 1])
        with pytest.raises(RuntimeExecutionError):
            executor.all_reduce([0, 1])

    def test_reduce_scatter_divisibility_checked(self):
        cluster = SimCluster.create(3, elems_per_chunk=1)
        with pytest.raises(RuntimeExecutionError):
            CollectiveExecutor(cluster).reduce_scatter([0, 1])

    def test_all_gather_ownership_conflicts_rejected(self):
        cluster = SimCluster.create(2, elems_per_chunk=1)
        with pytest.raises(RuntimeExecutionError):
            CollectiveExecutor(cluster).all_gather([0, 1])


class TestProgramExecution:
    def test_execute_records_trace(self):
        cluster = SimCluster.create(4, elems_per_chunk=1)
        program = LoweredProgram(
            4,
            (
                LoweredStep(Collective.REDUCE_SCATTER, ((0, 1), (2, 3))),
                LoweredStep(Collective.ALL_GATHER, ((0, 1), (2, 3))),
            ),
        )
        trace = execute_program(program, cluster)
        assert len(trace.events) == 8  # 2 steps x 2 groups x 2 devices
        assert sum(event.step == 0 for event in trace.events) == 4

    def test_device_count_mismatch(self):
        cluster = SimCluster.create(2)
        program = LoweredProgram(4, (LoweredStep(Collective.ALL_REDUCE, ((0, 1),)),))
        with pytest.raises(RuntimeExecutionError):
            execute_program(program, cluster)


class TestVerification:
    def test_default_all_reduce_verifies(self, figure2d_placement, shard_reduction):
        program = default_all_reduce(figure2d_placement, shard_reduction)
        report = verify_against_placement(program, figure2d_placement, shard_reduction)
        assert report.ok
        assert report.max_abs_error < 1e-9

    def test_blueconnect_and_hierarchical_verify(
        self, figure2d_synthesis_hierarchy, figure2d_placement, shard_reduction
    ):
        for builder in (blueconnect, reduce_allreduce_broadcast):
            program = builder(figure2d_synthesis_hierarchy, figure2d_placement)
            report = verify_against_placement(program, figure2d_placement, shard_reduction)
            assert report.ok, report.describe()

    def test_every_synthesized_program_is_numerically_correct(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 4], ["node", "gpu"])
        axes = ParallelismAxes.of(4, 2)
        request = ReductionRequest.over(0)
        matrix = enumerate_parallelism_matrices(hierarchy, axes)[1]
        placement = DevicePlacement(matrix)
        synthesis_hierarchy = build_synthesis_hierarchy(matrix, request)
        result = synthesize_programs(synthesis_hierarchy, max_program_size=3)
        assert result.num_programs > 0
        for synthesized in result.programs:
            lowered = lower_synthesized(synthesized, synthesis_hierarchy, placement)
            report = verify_against_placement(lowered, placement, request)
            assert report.ok, synthesized.describe(synthesis_hierarchy.names)

    def test_wrong_program_fails_verification(self):
        # An AllReduce over the wrong groups does not implement the request.
        program = LoweredProgram(
            4, (LoweredStep(Collective.ALL_REDUCE, ((0, 1), (2, 3))),)
        )
        report = verify_program(program, [[0, 2], [1, 3]])
        assert not report.ok
        with pytest.raises(VerificationError):
            verify_program(program, [[0, 2], [1, 3]], raise_on_failure=True)

    def test_incomplete_program_fails_verification(self):
        program = LoweredProgram(
            4, (LoweredStep(Collective.REDUCE_SCATTER, ((0, 1), (2, 3))),)
        )
        report = verify_program(program, [[0, 1], [2, 3]])
        assert not report.ok
        assert any("chunks" in failure for failure in report.failures)

    def test_report_mentions_uncovered_devices(self):
        program = LoweredProgram(4, (LoweredStep(Collective.ALL_REDUCE, ((0, 1),)),))
        report = verify_program(program, [[0, 1]])
        assert not report.ok
        assert any("cover" in failure for failure in report.failures)

    def test_describe(self, figure2d_placement, shard_reduction):
        program = default_all_reduce(figure2d_placement, shard_reduction)
        report = verify_against_placement(program, figure2d_placement, shard_reduction)
        assert report.describe().startswith("PASS")

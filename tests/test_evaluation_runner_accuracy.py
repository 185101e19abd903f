"""Tests for the sweep runner and the accuracy report.

These use a small payload scale and one measurement run so the whole module
stays fast while still executing every stage of the pipeline.
"""

from __future__ import annotations

import pytest

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.accuracy import (
    accuracy_table,
    rank_of_measured_best,
    top_k_accuracy,
)
from repro.evaluation.config import ExperimentConfig, SystemKind
from repro.evaluation.runner import SweepRunner

PAYLOAD_SCALE = 0.002


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        name="test-a100-2n-8x4",
        system=SystemKind.A100,
        num_nodes=2,
        axes=(8, 4),
        reduction_axes=(0,),
        algorithm=NCCLAlgorithm.RING,
        payload_scale=PAYLOAD_SCALE,
        max_program_size=3,
    )


@pytest.fixture(scope="module")
def sweep_result(small_config):
    runner = SweepRunner(measurement_runs=1)
    return runner.run(small_config)


class TestSweepRunner:
    def test_covers_every_matrix(self, sweep_result):
        assert sweep_result.num_matrices == 2
        descriptions = {m.matrix_description for m in sweep_result.matrices}
        assert descriptions == {"[[1 8] [2 2]]", "[[2 4] [1 4]]"}

    def test_every_matrix_has_default_allreduce(self, sweep_result):
        for matrix in sweep_result.matrices:
            baseline = matrix.all_reduce
            assert baseline is not None
            assert baseline.is_default_all_reduce
            assert baseline.predicted_seconds > 0
            assert baseline.measured_seconds is not None

    def test_programs_have_predictions_and_measurements(self, sweep_result):
        for _, program in sweep_result.iter_programs():
            assert program.predicted_seconds >= 0
            assert program.measured_seconds is not None
            assert program.evaluation_seconds == program.measured_seconds

    def test_best_and_speedup(self, sweep_result):
        cross_node = next(
            m for m in sweep_result.matrices if m.matrix_description == "[[2 4] [1 4]]"
        )
        best = cross_node.best()
        baseline = cross_node.all_reduce
        assert best is not None and baseline is not None
        assert best.evaluation_seconds <= baseline.evaluation_seconds
        assert cross_node.speedup_over_all_reduce() >= 1.0
        assert cross_node.programs_outperforming_all_reduce() >= 1

    def test_local_matrix_allreduce_is_near_optimal(self, sweep_result):
        """Paper Result 3: when the reduction fits in a node, AllReduce is (near) optimal."""
        local = next(
            m for m in sweep_result.matrices if m.matrix_description == "[[1 8] [2 2]]"
        )
        assert local.speedup_over_all_reduce() < 1.3

    def test_timings_recorded(self, sweep_result):
        assert sweep_result.synthesis_seconds > 0
        assert sweep_result.prediction_seconds > 0
        assert sweep_result.measurement_seconds > 0
        assert "matrices" in sweep_result.describe()

    def test_best_matrix(self, sweep_result):
        best = sweep_result.best_matrix()
        # The placement that keeps the reduction inside a node wins overall.
        assert best.matrix_description == "[[1 8] [2 2]]"

    def test_prediction_only_mode(self, small_config):
        runner = SweepRunner(measure_programs=False)
        result = runner.run(small_config)
        for _, program in result.iter_programs():
            assert program.measured_seconds is None
            assert program.evaluation_seconds == program.predicted_seconds


class TestAccuracy:
    def test_rank_of_measured_best(self, sweep_result):
        rank = rank_of_measured_best(sweep_result)
        assert rank is not None and rank >= 1

    def test_accuracy_report(self, sweep_result):
        report = top_k_accuracy([sweep_result], top_ks=(1, 5, 10))
        assert report.num_experiments == 1
        assert 0.0 <= report.accuracy(1) <= 1.0
        assert report.accuracy(10) >= report.accuracy(1)

    def test_accuracy_requires_measurements(self, small_config):
        runner = SweepRunner(measure_programs=False)
        result = runner.run(small_config)
        with pytest.raises(EvaluationError):
            top_k_accuracy([result])

    def test_unknown_k_rejected(self, sweep_result):
        report = top_k_accuracy([sweep_result], top_ks=(1,))
        with pytest.raises(EvaluationError):
            report.accuracy(7)

    def test_accuracy_table_has_total_row(self, sweep_result):
        rows = accuracy_table({"A100": [sweep_result]}, top_ks=(1, 5))
        assert rows[-1][0] == "Total"
        assert len(rows) == 2

    def test_monotone_in_k(self, sweep_result):
        report = top_k_accuracy([sweep_result], top_ks=(1, 2, 3, 5, 10))
        values = [report.accuracy(k) for k in (1, 2, 3, 5, 10)]
        assert values == sorted(values)

"""Tests for repro.analysis (serialization, statistics, comparisons)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    compare_sweeps,
    load_jsonl_results,
    result_from_record,
    result_to_record,
    summarize_results,
)
from repro.analysis.stats import render_summary
from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import ExperimentConfig, SystemKind
from repro.evaluation.runner import SweepRunner

PAYLOAD_SCALE = 0.002


@pytest.fixture(scope="module")
def results():
    configs = [
        ExperimentConfig(
            name="analysis-a100",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(8, 4),
            reduction_axes=(0,),
            payload_scale=PAYLOAD_SCALE,
            max_program_size=3,
        ),
        ExperimentConfig(
            name="analysis-v100",
            system=SystemKind.V100,
            num_nodes=2,
            axes=(16,),
            reduction_axes=(0,),
            payload_scale=PAYLOAD_SCALE,
            max_program_size=3,
        ),
    ]
    return SweepRunner(measurement_runs=1).run_many(configs)


def round_trip(results):
    """Each result through its JSON record and back."""
    return [result_from_record(json.loads(json.dumps(result_to_record(r)))) for r in results]


class TestSerialization:
    def test_roundtrip_preserves_everything_needed(self, results):
        restored = round_trip(results)
        assert len(restored) == len(results)
        for original, loaded in zip(results, restored):
            assert loaded.config == original.config
            assert loaded.num_matrices == original.num_matrices
            assert loaded.total_programs == original.total_programs
            for m_original, m_loaded in zip(original.matrices, loaded.matrices):
                assert m_loaded.matrix_description == m_original.matrix_description
                best_original = m_original.best()
                best_loaded = m_loaded.best()
                assert best_loaded.mnemonic == best_original.mnemonic
                assert best_loaded.measured_seconds == pytest.approx(
                    best_original.measured_seconds
                )

    def test_jsonl_file_round_trip(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("".join(json.dumps(result_to_record(r)) + "\n" for r in results))
        loaded = load_jsonl_results(path)
        assert [r.config for r in loaded] == [r.config for r in results]

    def test_version_check(self, results):
        record = dict(result_to_record(results[0]), format_version=99)
        with pytest.raises(EvaluationError):
            result_from_record(record)

    def test_summary_survives_roundtrip(self, results):
        original = summarize_results(results)
        restored = summarize_results(round_trip(results))
        assert restored.num_mappings == original.num_mappings
        assert restored.max_speedup == pytest.approx(original.max_speedup)


class TestStats:
    def test_summary_fields(self, results):
        summary = summarize_results(results)
        assert summary.num_configurations == 2
        assert summary.num_mappings >= 3
        assert 0.0 <= summary.fraction_outperforming <= 1.0
        assert summary.max_speedup >= summary.median_speedup >= 0.9
        assert summary.average_speedup_outperforming >= 1.0
        assert "paper" in summary.describe()

    def test_summary_requires_results(self):
        with pytest.raises(EvaluationError):
            summarize_results([])

    def test_render_summary_groups(self, results):
        text = render_summary({"A100": results[:1], "V100": results[1:]})
        assert "A100" in text and "V100" in text and "Total" in text


class TestCompare:
    def test_ring_vs_tree_comparison(self, results):
        tree_configs = [r.config.with_algorithm(NCCLAlgorithm.TREE) for r in results]
        tree_results = SweepRunner(measurement_runs=1).run_many(tree_configs)
        comparison = compare_sweeps(results, tree_results, "ring", "tree")
        assert comparison.num_matched >= 3
        assert comparison.left_wins + comparison.right_wins <= comparison.num_matched
        text = comparison.describe()
        assert "ring" in text and "tree" in text

    def test_disjoint_sweeps_rejected(self, results):
        other_config = ExperimentConfig(
            name="different",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(32,),
            reduction_axes=(0,),
            payload_scale=PAYLOAD_SCALE,
            max_program_size=2,
        )
        other = SweepRunner(measurement_runs=1).run_many([other_config])
        with pytest.raises(EvaluationError):
            compare_sweeps(results, other)

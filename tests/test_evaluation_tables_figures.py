"""Tests for the table/figure generators and reports (fast, reduced payloads)."""

from __future__ import annotations

import pytest

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import ExperimentConfig, SystemKind, figure11_configs
from repro.evaluation.figures import build_figure11
from repro.evaluation.report import (
    render_sweep_summary,
)
from repro.evaluation.runner import SweepRunner
from repro.evaluation.tables import (
    build_appendix_table,
    build_table3,
    build_table4,
    build_table5,
    table4_rows_from_results,
)

PAYLOAD_SCALE = 0.002


def make_config(name, system, nodes, axes, reduction, algorithm=NCCLAlgorithm.RING):
    return ExperimentConfig(
        name=name,
        system=system,
        num_nodes=nodes,
        axes=axes,
        reduction_axes=reduction,
        algorithm=algorithm,
        payload_scale=PAYLOAD_SCALE,
        max_program_size=3,
    )


@pytest.fixture(scope="module")
def small_results():
    runner = SweepRunner(measurement_runs=1)
    configs = [
        make_config("small-a100", SystemKind.A100, 2, (8, 4), (0,)),
        make_config("small-v100", SystemKind.V100, 2, (16,), (0,)),
    ]
    return runner.run_many(configs)


class TestTable3:
    def test_measured_table_shows_the_placement_spread(self):
        artifact = build_table3(payload_scale=PAYLOAD_SCALE)
        assert len(artifact.rows) > 0
        # Columns: system/axes, matrix, 4 time columns.
        assert len(artifact.headers) == 6
        assert "Table 3" in artifact.text
        # Placement impact: within one shape, the same reduction axis must
        # show a large spread across matrices (paper Result 1).
        by_shape = {}
        for row in artifact.rows:
            by_shape.setdefault(row[0], []).append(row)
        spread_found = False
        for rows in by_shape.values():
            axis0_ring = [r[2] for r in rows if r[2] > 0]
            if len(axis0_ring) >= 2 and max(axis0_ring) / min(axis0_ring) > 20:
                spread_found = True
        assert spread_found

    def test_measured_table_on_reduced_payload(self):
        artifact = build_table3(payload_scale=0.001)
        assert len(artifact.rows) > 0


class TestTable4:
    def test_rows_from_results(self, small_results):
        rows = table4_rows_from_results(small_results)
        assert len(rows) == sum(len(r.matrices) for r in small_results)
        for row in rows:
            speedup = row[8]
            assert speedup >= 0.99  # the optimum is never worse than AllReduce

    def test_build_table4_from_existing_results(self, small_results):
        artifact = build_table4(results=small_results)
        assert "Speedup" in artifact.headers
        assert len(artifact.rows) > 0


class TestTable5:
    def test_accuracy_table_from_results(self, small_results):
        artifact = build_table5(results=small_results)
        assert artifact.rows[-1][0] == "Total"
        for value in artifact.rows[-1][1:]:
            assert 0.0 <= value <= 100.0


class TestAppendixTable:
    def test_build(self, small_results):
        artifact = build_appendix_table(small_results)
        assert len(artifact.rows) == sum(len(r.matrices) for r in small_results)
        assert "Appendix" in artifact.text

    def test_requires_results(self):
        with pytest.raises(EvaluationError):
            build_appendix_table([])


class TestFigure11:
    def test_series_from_result(self, small_results):
        series = build_figure11(small_results[0].config, result=small_results[0])
        assert series.num_points == small_results[0].total_programs
        # Points sorted by measured time.
        measured = [p.measured_seconds for p in series.points]
        assert measured == sorted(measured)
        assert 0 <= series.mean_relative_error < 2.0
        assert -1.0 <= series.spearman_correlation() <= 1.0
        text = series.render(max_rows=5)
        assert "Figure 11" in text and "Spearman" in text

    def test_simulation_follows_measurement_trend(self, small_results):
        """The analytic prediction must rank programs similarly to the testbed."""
        series = build_figure11(small_results[0].config, result=small_results[0])
        assert series.spearman_correlation() > 0.6

    def test_max_programs_cap(self, small_results):
        series = build_figure11(
            small_results[0].config, result=small_results[0], max_programs=3
        )
        assert series.num_points == 3

    def test_figure11_configs_exist(self):
        assert len(figure11_configs(PAYLOAD_SCALE)) == 2


class TestReports:
    def test_render_sweep_summary(self, small_results):
        text = render_sweep_summary(small_results)
        assert "Sweep summary" in text
        for result in small_results:
            assert result.config.name in text

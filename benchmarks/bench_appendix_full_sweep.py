"""Benchmark E6 — the appendix table: the full placement/strategy sweep.

The paper's appendix tabulates, for every parallelism-axes shape on both GPU
systems with 2 and 4 nodes and both NCCL algorithms, the AllReduce time, the
optimal synthesized time and the speedup for every parallelism matrix.  The
full sweep is large; by default this benchmark runs the 2-node ring subset
(set ``REPRO_BENCH_FULL_SWEEP=1`` for everything) and prints the appendix
rows it produced.

The paper's aggregate claim over this sweep (Result 5 / abstract) is that a
synthesized program outperforms AllReduce for 69% of mappings with an average
speedup of 1.27x; the benchmark reports the same aggregate for the subset it
ran (:func:`repro.analysis.summarize_results`) and asserts the qualitative
version (a substantial fraction of mappings benefit; the average speedup over
*benefiting* mappings is in the paper's range).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import summarize_results
from repro.cost.nccl import NCCLAlgorithm
from repro.evaluation.config import appendix_configs
from repro.evaluation.runner import SweepRunner
from repro.evaluation.tables import build_appendix_table


def _configs(payload_scale: float):
    if os.environ.get("REPRO_BENCH_FULL_SWEEP"):
        return appendix_configs(payload_scale)
    return appendix_configs(
        payload_scale,
        node_counts=(2,),
        algorithms=(NCCLAlgorithm.RING,),
    )


@pytest.mark.benchmark(group="appendix")
def test_appendix_full_sweep(benchmark, payload_scale, measurement_runs, save_artifact):
    configs = _configs(payload_scale)
    runner = SweepRunner(measurement_runs=measurement_runs)

    results = benchmark.pedantic(runner.run_many, args=(configs,), rounds=1, iterations=1)
    artifact = build_appendix_table(results)

    # A mapping "benefits" when its best synthesized program is at least 5%
    # faster than the default AllReduce (speedup >= 1.05).
    summary = summarize_results(results)
    save_artifact(
        "appendix_full_sweep", artifact.text + "\n" + summary.describe(), preview_lines=30
    )

    assert summary.fraction_outperforming > 0.25
    assert 1.1 <= summary.average_speedup_outperforming <= 2.5

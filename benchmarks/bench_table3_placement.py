"""Benchmark E1 — Table 3: impact of parallelism placement on AllReduce.

Regenerates, for every parallelism matrix of the paper's four shape groups
(A100 ``[2 32]``/``[4 16]``/``[8 8]``, V100 ``[8 4]``, 4 nodes each), the
AllReduce time for reduction on axis 0 and axis 1 under NCCL ring and tree —
the rows of Table 3.  The paper's headline (Result 1) is the enormous spread
between matrices for a fixed reduction axis (up to 448x); the benchmark
asserts that the spread is reproduced (>50x) and prints the full table.
"""

from __future__ import annotations

import pytest

from repro.evaluation.tables import build_table3


@pytest.mark.benchmark(group="table3")
def test_table3_placement_impact(benchmark, payload_scale, save_artifact):
    artifact = benchmark.pedantic(
        build_table3,
        kwargs=dict(payload_scale=payload_scale),
        rounds=1,
        iterations=1,
    )
    save_artifact("table3_placement_impact", artifact.text, preview_lines=20)

    # Result 1: for at least one shape group and reduction axis the spread
    # across matrices exceeds 50x (the paper reports up to 448x).
    spreads = []
    by_shape = {}
    for row in artifact.rows:
        by_shape.setdefault(row[0], []).append(row)
    for rows in by_shape.values():
        for column in (2, 3, 4, 5):
            times = [row[column] for row in rows if row[column] > 0]
            if len(times) >= 2:
                spreads.append(max(times) / min(times))
    assert max(spreads) > 50.0

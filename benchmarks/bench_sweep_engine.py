"""Benchmark S2 — sweep-engine cache amortization.

The sweep engine's reason to exist is that re-running (or extending) a
scenario sweep should not pay synthesis again: every scenario query goes
through the :class:`~repro.query.Planner` protocol, so a sweep driven by a
:class:`~repro.service.engine.PlanningService` with an on-disk plan cache
answers warm re-runs with fingerprint lookups.

This benchmark runs the ``smoke`` preset cold and then warm through a fresh
service reading the same cache directory, checks the warm run is strictly
faster, and checks the warm records are bit-identical to the cold ones outside
wall-clock provenance.  The cold/warm ratio is printed as a labelled proxy,
not asserted: its numerator is a cold plan, so a ``>= 5x`` bar would fail the
day cold plans get cheaper (three such gates did in PR 12, a fourth in PR 19).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.evaluation.runner import SweepRunner
from repro.evaluation.scenarios import PRESETS
from repro.service import PlanCache, PlanningService
from repro.utils.tabulate import format_table


def _service_runner(cache_dir, preset) -> SweepRunner:
    return SweepRunner(
        measure_programs=preset.measure_programs,
        measurement_runs=preset.measurement_runs,
        planner_factory=lambda topology: PlanningService(
            topology, cache=PlanCache(directory=cache_dir)
        ),
    )


def _stripped(records):
    """Records minus wall-clock fields: the deterministic sweep output."""
    stripped = []
    for record in records:
        record = json.loads(json.dumps(record))  # deep copy
        record.pop("provenance", None)
        for matrix in record.get("matrices", ()):
            matrix.pop("synthesis_seconds", None)
        stripped.append(record)
    return stripped


@pytest.mark.benchmark(group="sweep-engine")
def test_smoke_sweep_cold_vs_warm(benchmark, save_artifact, bench_json, tmp_path_factory):
    preset = PRESETS["smoke"]
    scenarios = preset.scenarios()
    cache_dir = tmp_path_factory.mktemp("sweep-cache")

    def cold_then_warm():
        cold_records = []
        runner = _service_runner(cache_dir, preset)
        start = time.perf_counter()
        cold_results = runner.run_stream(scenarios, on_record=cold_records.append)
        cold_seconds = time.perf_counter() - start
        assert all(not result.cache_hit for result in cold_results)

        warm_records = []
        runner = _service_runner(cache_dir, preset)  # fresh memory tier
        start = time.perf_counter()
        warm_results = runner.run_stream(scenarios, on_record=warm_records.append)
        warm_seconds = time.perf_counter() - start
        assert all(result.cache_tier == "disk" for result in warm_results)
        return cold_records, warm_records, cold_seconds, warm_seconds

    cold_records, warm_records, cold_seconds, warm_seconds = benchmark.pedantic(
        cold_then_warm, rounds=1, iterations=1
    )

    # Cache amortization must not change a single answer.
    assert _stripped(warm_records) == _stripped(cold_records)

    speedup = cold_seconds / warm_seconds
    text = format_table(
        ["path", "seconds", "cold/warm (proxy, not a gate)"],
        [
            ["cold (synthesis + evaluation)", cold_seconds, 1.0],
            ["warm (disk-cache lookups)", warm_seconds, speedup],
        ],
        title=f"Sweep engine: smoke preset, {len(scenarios)} scenarios, shared plan cache",
        float_fmt="{:.4f}",
    )
    save_artifact("sweep_engine", text)
    bench_json(
        "sweep_smoke_cold",
        cold_seconds,
        counters={
            "scenarios": len(scenarios),
            "programs": sum(
                sum(len(m["programs"]) for m in record["matrices"])
                for record in cold_records
            ),
        },
    )
    bench_json(
        "sweep_smoke_warm",
        warm_seconds,
        counters={"scenarios": len(scenarios)},
    )

    # Order, not ratio: a warm re-run through the planning service must beat
    # the cold run it amortizes.
    assert warm_seconds < cold_seconds, (
        f"warm sweep took {warm_seconds:.3f}s, cold {cold_seconds:.3f}s"
    )

"""Benchmark S1 — planning-service throughput (plan cache tiers).

The planning service exists to amortize P² queries: a cold query pays full
synthesis + simulation, while a warm query is a fingerprint lookup plus plan
deserialization.  This benchmark runs the same workload as
``bench_synthesis_time`` (the Table 4 configurations) through the service
three times — cold, warm from the in-memory LRU, and warm from a fresh
service reading the on-disk tier — and reports per-configuration latency and
speedup.

Pass criteria: warm-cache lookups (memory and disk) strictly faster than the
cold plan and ranking-identical to it for every configuration.  The cold/warm ratio is printed as a labelled proxy, not
gated: its numerator is the cold plan, so a bar on it fails whenever cold
plans get faster although nothing regressed (``service_cold_plan`` and
``service_warm_memory_lookup`` in ``baseline.json`` gate the two sides).
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from repro.evaluation.config import table4_configs
from repro.query import PlanQuery
from repro.service import PlanCache, PlanningService
from repro.utils.tabulate import format_table


def _ranking(plan):
    return [
        (s.matrix.describe(), s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


def _query_for(config) -> PlanQuery:
    return PlanQuery(
        axes=config.parallelism(),
        request=config.request(),
        bytes_per_device=config.bytes_per_device,
        algorithm=config.algorithm,
        max_program_size=config.max_program_size,
    )


@pytest.mark.benchmark(group="service-throughput")
def test_cold_vs_warm_cache_throughput(benchmark, save_artifact, bench_json, tmp_path_factory):
    configs = table4_configs(payload_scale=0.01)
    cache_root = tmp_path_factory.mktemp("plan-cache")

    def one_pass():
        rows = []
        services = {}
        rankings = {}

        def service_for(config, fresh=False):
            key = (config.system, config.num_nodes)
            if fresh or key not in services:
                services[key] = PlanningService(
                    config.topology(),
                    cache=PlanCache(directory=cache_root / f"{key[0].value}-{key[1]}n"),
                )
            return services[key]

        for config in configs:
            query = _query_for(config)

            start = time.perf_counter()
            cold = service_for(config).plan(query)
            cold_seconds = time.perf_counter() - start
            assert cold.cache_tier is None

            start = time.perf_counter()
            warm = service_for(config).plan(query)
            memory_seconds = time.perf_counter() - start
            assert warm.cache_tier == "memory"

            start = time.perf_counter()
            disk = service_for(config, fresh=True).plan(query)
            disk_seconds = time.perf_counter() - start
            assert disk.cache_tier == "disk"

            for label, outcome in [("memory", warm), ("disk", disk)]:
                assert _ranking(outcome.plan) == _ranking(cold.plan), (
                    f"{config.name}: {label}-tier plan diverges from cold plan"
                )
            rankings[config.name] = _ranking(cold.plan)
            rows.append(
                [
                    config.name,
                    len(cold.plan.strategies),
                    cold_seconds,
                    memory_seconds * 1e3,
                    disk_seconds * 1e3,
                    cold_seconds / memory_seconds,
                    cold_seconds / disk_seconds,
                ]
            )
        return rows

    rows = benchmark.pedantic(one_pass, rounds=1, iterations=1)
    text = format_table(
        [
            "configuration",
            "strategies",
            "cold (s)",
            "warm mem (ms)",
            "warm disk (ms)",
            "cold/mem (proxy)",
            "cold/disk (proxy)",
        ],
        rows,
        title="Planning-service latency: cold plan vs warm cache",
        float_fmt="{:.3f}",
    )
    save_artifact("service_throughput", text)
    bench_json(
        "service_cold_plan",
        median(row[2] for row in rows),
        counters={
            "configurations": len(rows),
            "strategies": sum(row[1] for row in rows),
        },
    )
    bench_json(
        "service_warm_memory_lookup",
        median(row[3] for row in rows) / 1e3,
        counters={"configurations": len(rows)},
    )

    # The acceptance bar: on every configuration of the bench_synthesis_time
    # workload a hit on either tier beats planning again (rankings were
    # checked identical above).
    assert all(row[3] < row[2] * 1e3 for row in rows), "memory hit not faster than cold"
    assert all(row[4] < row[2] * 1e3 for row in rows), "disk hit not faster than cold"


@pytest.mark.benchmark(group="service-throughput")
def test_plan_many_batch_dedup_throughput(benchmark, save_artifact, tmp_path_factory):
    """Batch PlanQuery throughput: duplicates inside one batch ride the cache."""
    config = table4_configs(payload_scale=0.01)[0]
    queries = [_query_for(config)] * 8  # one cold computation, seven memory hits

    def one_batch():
        service = PlanningService(
            config.topology(),
            cache=PlanCache(directory=tmp_path_factory.mktemp("plan-batch")),
        )
        start = time.perf_counter()
        outcomes = service.plan_many(queries)
        seconds = time.perf_counter() - start
        return outcomes, seconds

    outcomes, seconds = benchmark.pedantic(one_batch, rounds=1, iterations=1)
    tiers = [outcome.cache_tier for outcome in outcomes]
    assert tiers == [None] + ["memory"] * 7
    # Every duplicate reproduces the cold ranking exactly.
    baseline = _ranking(outcomes[0].plan)
    assert all(_ranking(outcome.plan) == baseline for outcome in outcomes[1:])

    cold_seconds = outcomes[0].total_seconds
    amortized = (seconds - cold_seconds) / 7
    text = format_table(
        ["path", "seconds"],
        [
            ["cold (first of batch)", cold_seconds],
            ["amortized duplicate", amortized],
            ["whole 8-query batch", seconds],
        ],
        title="plan_many: one cold computation amortized over an 8-query batch",
        float_fmt="{:.4f}",
    )
    save_artifact("service_plan_many", text)
    assert amortized < cold_seconds, "duplicates should be far cheaper than cold"

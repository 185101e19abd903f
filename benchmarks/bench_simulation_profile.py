"""Benchmark S3 — compiled simulation profiles (the simulator's fast path).

The planner's inner loop simulates every candidate program, and sweeps
re-simulate the same programs across payload ladders.  The compile/price
split (:mod:`repro.cost.profile`) pays Hoare semantics and contention
analysis once per program signature; re-pricing a cached profile for another
payload is a closed-form loop over group equivalence classes.

This benchmark takes every program the synthesis pipeline produces for the
A100 ``[8 4]`` shape, re-prices the whole set across a 4-point payload
ladder through a warm profile cache, and compares against full re-simulation
(the per-group reference path).  The PR acceptance bar is a >= 5x median
speedup.  ``profile_classes`` (total equivalence classes across the compiled
profiles) and program counts are deterministic for the workload and gate
exactly in CI; the speedup is asserted here, not gated by the baseline.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.api import collect_strategy_entries
from repro.cost.simulator import ProgramSimulator
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.synthesis.pipeline import synthesize_all
from repro.topology.gcp import a100_system
from repro.utils.tabulate import format_table

MB = 1 << 20
PAYLOAD_LADDER = tuple(scale * 64 * MB for scale in (0.001, 0.01, 0.1, 1.0))
SPEEDUP_BAR = 5.0
ROUNDS = 5


@pytest.mark.benchmark(group="simulation-profile")
def test_profile_reprice_vs_full_simulation(benchmark, save_artifact, bench_json):
    topology = a100_system(num_nodes=2)
    request = ReductionRequest.over(0)
    candidates = synthesize_all(
        topology.hierarchy, ParallelismAxes.of(8, 4), request, max_program_size=3
    )
    entries = collect_strategy_entries(candidates, request)
    programs = [e.lowered for e in entries if e.lowered.num_steps > 0]

    simulator = ProgramSimulator(topology)
    # Warm the profile cache: every signature compiled exactly once.
    for program in programs:
        simulator.profile_for(program)
    profile_classes = sum(
        simulator.profile_for(program).num_classes for program in programs
    )

    def price_ladder():
        for payload in PAYLOAD_LADDER:
            for program in programs:
                simulator.simulate(program, payload)

    def simulate_ladder():
        for payload in PAYLOAD_LADDER:
            for program in programs:
                simulator.simulate_reference(program, payload)

    def one_round():
        start = time.perf_counter()
        price_ladder()
        price_seconds = time.perf_counter() - start
        start = time.perf_counter()
        simulate_ladder()
        full_seconds = time.perf_counter() - start
        return price_seconds, full_seconds

    rounds = benchmark.pedantic(
        lambda: [one_round() for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    price_median = statistics.median(r[0] for r in rounds)
    full_median = statistics.median(r[1] for r in rounds)
    speedup = full_median / price_median

    # Sanity: the fast path and the reference path agree to the last ulp on
    # one probe payload (the full contract lives in tests/test_cost_profile.py).
    probe = PAYLOAD_LADDER[1]
    assert all(
        simulator.simulate(p, probe) == simulator.simulate_reference(p, probe)
        for p in programs[:5]
    )

    text = format_table(
        ["path", "median seconds (ladder)", "speedup"],
        [
            ["full re-simulation (semantics + contention)", full_median, 1.0],
            ["profile re-pricing (cached compile)", price_median, speedup],
        ],
        title=(
            f"Simulation profiles: {len(programs)} programs x "
            f"{len(PAYLOAD_LADDER)}-point payload ladder "
            f"({profile_classes} equivalence classes)"
        ),
        float_fmt="{:.4f}",
    )
    save_artifact("simulation_profile", text)
    bench_json(
        "simulation_profile",
        price_median,
        counters={
            "programs": len(programs),
            "payloads": len(PAYLOAD_LADDER),
            "profile_classes": profile_classes,
        },
    )

    # The PR acceptance bar: re-pricing a cached program across the ladder is
    # at least 5x faster than full re-simulation.
    assert speedup >= SPEEDUP_BAR, (
        f"profile re-pricing only {speedup:.1f}x faster than full simulation "
        f"(bar: {SPEEDUP_BAR}x)"
    )

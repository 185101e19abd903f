"""Quickstart: synthesize and rank reduction strategies for one system.

This example mirrors the paper's core workflow:

1. describe the hardware (2 nodes x 16 A100 GPUs),
2. describe the parallelism (8-way data parallelism x 4-way parameter
   sharding) and which axis must be reduced (the data-parallel gradients),
3. let P2 enumerate every parallelism placement and every reduction strategy,
   rank them with the topology-aware simulator, and
4. inspect, verify and (testbed-)measure the winner.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro.api import P2
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.runtime.events import TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.runtime.verification import verify_against_placement
from repro.topology.gcp import a100_system

MB = 1 << 20


def main() -> None:
    # 1. The system: 2 nodes, each with 16 A100s behind one NVSwitch and one NIC.
    system = a100_system(num_nodes=2)
    print(system.describe())
    print()

    # 2. The workload as a PlanQuery: 8-way data parallelism, 4-way parameter
    #    sharding, gradient reduction over the data-parallel axis, 256 MB per
    #    GPU.  The query object is the planning API's currency — the same
    #    dict-serializable form drives the planning service and the sweeps.
    query = PlanQuery(
        axes=ParallelismAxes.of(8, 4, names=("data", "shard")),
        request=ReductionRequest.over(0),
        bytes_per_device=256 * MB,
        algorithm=NCCLAlgorithm.RING,
    )

    # 3. Synthesize placements + strategies and rank them.  The outcome
    #    carries the ranked plan plus provenance: timings, search counters
    #    and the speedup over each paper baseline.
    p2 = P2(system)
    outcome = p2.plan(query)
    plan = outcome.plan
    print(plan.describe(top_k=8))
    print()
    for name, speedup in sorted(outcome.baseline_speedups().items()):
        rendered = "inf" if speedup is None else f"{speedup:.2f}"
        print(f"speedup over {name} baseline (best placement): {rendered}x")
    print()

    best = plan.best
    default = plan.default_all_reduce()
    print(f"default AllReduce (best placement): {default.describe()}")
    print(f"best synthesized strategy:          {best.describe()}")
    print(f"predicted speedup over the default: {plan.speedup_over_default():.2f}x")
    print("(the 8-way reduction fits inside one node, so the best move is the")
    print(" placement itself: keep the data-parallel axis local and AllReduce there)")
    print()

    # Placement is often constrained in practice (e.g. the sharding axis must
    # stay inside a node because of its own activation all-reduces).  Pin the
    # placement that spreads the data axis across nodes and compare the
    # synthesized strategies against the default AllReduce *for that matrix*.
    constrained_matrix = next(
        s.matrix for s in plan.strategies if s.matrix.describe() == "[[2 4] [1 4]]"
    )
    constrained = plan.strategies_for_matrix(constrained_matrix)
    constrained_best = constrained[0]
    constrained_default = plan.default_all_reduce(constrained_matrix)
    print(f"with the placement pinned to {constrained_matrix.describe()} (data axis crosses nodes):")
    print(f"  default AllReduce:       {constrained_default.predicted_seconds:.4f}s")
    print(f"  best synthesized ({constrained_best.mnemonic}): {constrained_best.predicted_seconds:.4f}s "
          f"-> {constrained_default.predicted_seconds / constrained_best.predicted_seconds:.2f}x speedup")
    print()

    # 4a. Why is it fast?  Per-step breakdown from the analytic simulator.
    program = constrained_best.program
    detail = ProgramSimulator(system).simulate(program, query.bytes_per_device, query.algorithm)
    print(detail.describe())
    print()

    # 4b. Check the strategy actually computes the requested reduction, and
    #     measure it on the flow-level testbed simulator.
    report = verify_against_placement(
        program, constrained_best.candidate.placement, query.request
    )
    print(f"numerical verification: {report.describe()}")
    measurement = TestbedSimulator(system, NoiseModel(seed=0)).measure(
        program, query.bytes_per_device, query.algorithm, num_runs=3
    )
    print(f"testbed measurement:    {measurement.describe()}")


if __name__ == "__main__":
    main()

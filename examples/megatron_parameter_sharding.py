"""Choosing one placement for a model with two reduction axes.

Megatron-style training combines data parallelism with parameter sharding
(tensor parallelism): every step all-reduces activations over the sharding
axis *and* gradients over the data axis.  Section 4.1 of the paper points out
that a placement that is perfect for one reduction can be terrible for the
other (the B1 vs. B3 trade-off in Table 3), so the placement must be chosen
with all reductions in mind.

This example uses :func:`repro.planner.plan_placements` to enumerate
every placement of (data=4, shard=16) on 4 A100 nodes, price both reductions
for each placement (each with its own best synthesized strategy), and pick
the placement minimising the weighted combined cost.

Run with ``python examples/megatron_parameter_sharding.py``.
"""

from __future__ import annotations

from repro.api import P2
from repro.evaluation.workloads import megatron_sharded_layer
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.planner import WeightedReduction, plan_placements
from repro.topology.gcp import a100_system

MB = 1 << 20


def main() -> None:
    system = a100_system(num_nodes=4)
    axes = ParallelismAxes.of(4, 16, names=("data", "shard"))
    workload = megatron_sharded_layer(data_parallel=4, model_parallel=16)

    # Gradients reduce once per step over the data axis; the sharded layers
    # all-reduce activations over the shard axis several times per step
    # (weight 4 here), each with a smaller payload.
    reductions = [
        WeightedReduction(
            name="gradients",
            request=ReductionRequest.over(0),
            bytes_per_device=max(workload.phases[1].bytes_per_device, 256 * MB),
            weight=1.0,
        ),
        WeightedReduction(
            name="activations",
            request=ReductionRequest.over(1),
            bytes_per_device=max(workload.phases[0].bytes_per_device, 128 * MB),
            weight=4.0,
        ),
    ]

    plan = plan_placements(P2(system), axes, reductions)

    print(f"system: {system.name}; parallelism: {axes.describe()}")
    print()
    print(plan.describe(top_k=5))
    print()

    best = plan.best
    print(f"best combined placement: {best.matrix.describe()}")
    for choice in best.choices:
        print(
            f"  {choice.reduction.name:12s}: {choice.seconds * 1e3:8.2f} ms with "
            f"{choice.mnemonic:10s} ({choice.speedup_over_all_reduce:.2f}x over AllReduce)"
        )
    print()
    advantage = plan.advantage_over_single_axis_choice()
    if advantage > 1.01:
        print(
            "picking the placement greedily for the heaviest reduction alone would be "
            f"{advantage:.2f}x slower overall — the paper's B1/B3 trade-off: a placement "
            "that makes one reduction nearly free can make the other catastrophic, so all "
            "reductions must be priced together."
        )
    else:
        print(
            "here the greedy single-reduction choice happens to coincide with the combined "
            "optimum; shift the payload balance and it no longer does (the paper's B1/B3 "
            "trade-off)."
        )


if __name__ == "__main__":
    main()

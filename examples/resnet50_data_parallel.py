"""ResNet-50 data-parallel training on 4 nodes of 8 V100 GPUs.

The paper's introduction reports that P2 improved ResNet-50 data-parallel
training by 15% on exactly this system.  This example rebuilds that
experiment on the simulated substrate:

* the per-step gradient all-reduce payload is the full ResNet-50 model
  (25.6M float32 parameters, ~102 MB),
* the default strategy is a single AllReduce over all 32 replicas,
* P2 instead picks a placement-aware hierarchical strategy,
* the end-to-end effect is computed with the training-step model from
  :mod:`repro.evaluation.workloads`.

Run with ``python examples/resnet50_data_parallel.py``.
"""

from __future__ import annotations

from repro.api import P2
from repro.evaluation.workloads import resnet50_data_parallel
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.runtime.events import TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.runtime.verification import verify_against_placement
from repro.topology.gcp import v100_system


def main() -> None:
    num_nodes = 4
    system = v100_system(num_nodes=num_nodes)
    replicas = system.num_devices  # 32-way data parallelism
    # Per-replica batch of 64 images: roughly 75 ms of compute per step on a
    # V100, which puts the gradient all-reduce at ~25-35% of the step — the
    # regime of the paper's ResNet-50 experiment.
    workload = resnet50_data_parallel(replicas, compute_seconds=0.075)
    gradient_bytes = workload.phases[0].bytes_per_device

    print(f"system: {system.name} ({replicas} GPUs)")
    print(f"gradient payload per GPU: {gradient_bytes / 1e6:.1f} MB")
    print()

    plan = P2(system).plan(
        PlanQuery(
            axes=ParallelismAxes.of(replicas, names=("data",)),
            request=ReductionRequest.over(0),
            bytes_per_device=gradient_bytes,
        )
    ).plan

    default = plan.default_all_reduce()
    best = plan.best
    print(plan.describe(top_k=5))
    print()

    # Use the testbed measurements (which include cross-PCIe-domain losses and
    # noise, like the real system) for the end-to-end comparison.
    def measured(strategy) -> float:
        testbed = TestbedSimulator(system, NoiseModel(seed=0))
        return testbed.measure(strategy.program, gradient_bytes, num_runs=3).total_seconds

    default_comm = measured(default)
    best_comm = measured(best)
    print(f"default AllReduce: {default_comm * 1e3:.1f} ms per step (measured)")
    print(f"best strategy:     {best_comm * 1e3:.1f} ms per step "
          f"({best.mnemonic}, matrix {best.matrix.describe()})")

    # Translate the communication improvement into an end-to-end step improvement.
    baseline_step = workload.step_time({"gradients": default_comm})
    optimized_step = workload.step_time({"gradients": best_comm})
    improvement = workload.improvement(
        {"gradients": default_comm}, {"gradients": best_comm}
    )
    print()
    print(f"step time with default AllReduce: {baseline_step * 1e3:.1f} ms "
          f"({workload.communication_fraction({'gradients': default_comm}) * 100:.0f}% communication)")
    print(f"step time with P2 strategy:       {optimized_step * 1e3:.1f} ms")
    print(f"end-to-end training-step improvement: {improvement * 100:.1f}% "
          f"(paper reports ~15% on this system)")

    # Confirm the chosen strategy is numerically correct.
    report = verify_against_placement(
        best.program, best.candidate.placement, ReductionRequest.over(0)
    )
    print()
    print(f"numerical verification: {report.describe()}")


if __name__ == "__main__":
    main()

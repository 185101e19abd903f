"""Tests for repro.cost.contention and repro.cost.simulator."""

from __future__ import annotations

import pytest

from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.cost.contention import analyze_step_contention
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator, simulate_program
from repro.errors import CostModelError
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.hierarchy.levels import SystemHierarchy
from repro.semantics.collectives import Collective
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import LoweredProgram, LoweredStep
from repro.topology.gcp import a100_system, v100_system
from repro.topology.links import LinkKind, LinkSpec
from repro.topology.topology import MachineTopology

GIB = float(1 << 30)


def placement_for(system, axes_sizes, matrix_entries):
    axes = ParallelismAxes(tuple(axes_sizes))
    for matrix in enumerate_parallelism_matrices(system.hierarchy, axes):
        if matrix.entries == matrix_entries:
            return matrix, DevicePlacement(matrix)
    raise AssertionError("matrix not found")


class TestContention:
    def test_intra_node_groups_on_nvswitch_do_not_share(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 1), (2, 3), (4, 5)))
        contention = analyze_step_contention(step, a100_2node)
        assert all(g.sharing == 1.0 for g in contention.groups)
        assert all(not g.crosses_nic for g in contention.groups)

    def test_intra_node_groups_on_nvlink_ring_share(self, v100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 1), (2, 3), (4, 5), (6, 7)))
        contention = analyze_step_contention(step, v100_2node)
        assert all(g.sharing == 4.0 for g in contention.groups)

    def test_cross_node_groups_share_the_nic(self, a100_2node):
        groups = tuple((i, i + 16) for i in range(16))
        step = LoweredStep(Collective.ALL_REDUCE, groups)
        contention = analyze_step_contention(step, a100_2node)
        assert all(g.crosses_nic for g in contention.groups)
        assert all(g.sharing == pytest.approx(16.0) for g in contention.groups)
        assert contention.max_sharing == pytest.approx(16.0)

    def test_single_cross_node_group_has_no_sharing(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 16),))
        contention = analyze_step_contention(step, a100_2node)
        assert contention.groups[0].sharing == pytest.approx(1.0)
        assert contention.groups[0].effective_bandwidth == pytest.approx(8e9)

    def test_host_link_penalty_applied_on_v100(self, v100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 8),))
        contention = analyze_step_contention(step, v100_2node)
        # The NIC (8 GB/s) is slower than PCIe (32 GB/s) so no extra penalty.
        assert contention.groups[0].effective_bandwidth <= 8e9

    def slow_host_topology(self) -> MachineTopology:
        """A fast NIC fabric (32 GB/s) behind a slow host link (8 GB/s)."""
        return MachineTopology(
            name="fast-nic-slow-host",
            hierarchy=SystemHierarchy.from_pairs([("node", 2), ("gpu", 4)]),
            interconnects=(
                LinkSpec("fast-nic", LinkKind.NIC, bandwidth=32e9, latency=5e-6),
                LinkSpec("nvswitch", LinkKind.NVSWITCH, bandwidth=270e9, latency=2e-6),
            ),
            host_link=LinkSpec("slow-pcie", LinkKind.PCIE, bandwidth=8e9, latency=2e-6),
        )

    def test_slow_host_link_fold_pins_effective_bandwidth(self):
        """Regression pin for the host-link fold (historically a dead ``max``).

        With a host link slower than the NIC fabric, the sharing factor is
        *scaled* by the bandwidth ratio — never a ``max`` against it — so the
        effective bandwidth comes out as host.bandwidth / nic_sharing.  The
        old ``max(sharing, ratio * sharing)`` wrote the same fold obscurely
        (ratio > 1 makes the max a no-op); this pins the chosen semantics.
        """
        topology = self.slow_host_topology()
        # One cross-node group: nic sharing 1, capped at the host link rate.
        single = analyze_step_contention(
            LoweredStep(Collective.ALL_REDUCE, ((0, 4),)), topology
        )
        assert single.groups[0].sharing == pytest.approx(32e9 / 8e9)
        assert single.groups[0].effective_bandwidth == pytest.approx(8e9)
        # Four concurrent cross-node groups: NIC shared 4 ways *and* capped,
        # i.e. host.bandwidth / 4 — the penalties compose multiplicatively.
        quad = analyze_step_contention(
            LoweredStep(
                Collective.ALL_REDUCE, tuple((i, i + 4) for i in range(4))
            ),
            topology,
        )
        for group in quad.groups:
            assert group.sharing == pytest.approx(4.0 * 32e9 / 8e9)
            assert group.effective_bandwidth == pytest.approx(8e9 / 4.0)

    def test_devices_out_of_range_rejected(self, a100_2node):
        step = LoweredStep(Collective.ALL_REDUCE, ((0, 200),))
        with pytest.raises(CostModelError):
            analyze_step_contention(step, a100_2node)


class TestSimulator:
    def test_intra_node_much_faster_than_cross_node(self, a100_4node):
        system = a100_4node
        bytes_per_device = int(0.5 * GIB)
        # [[1 4] [4 4]]: the data axis fits inside a node.
        _, local_placement = placement_for(system, (4, 16), ((1, 4), (4, 4)))
        # [[4 1] [1 16]]: the data axis spans the four nodes.
        _, cross_placement = placement_for(system, (4, 16), ((4, 1), (1, 16)))
        request = ReductionRequest.over(0)
        local = simulate_program(
            default_all_reduce(local_placement, request), system, bytes_per_device
        )
        cross = simulate_program(
            default_all_reduce(cross_placement, request), system, bytes_per_device
        )
        # Paper Result 1: orders of magnitude difference (448x there; >50x here).
        assert cross.total_seconds > 50 * local.total_seconds

    def test_blueconnect_beats_allreduce_cross_node(self, a100_4node):
        system = a100_4node
        bytes_per_device = int(1 * GIB)
        matrix, placement = placement_for(system, (4, 16), ((2, 2), (2, 8)))
        request = ReductionRequest.over(0)
        hierarchy = build_synthesis_hierarchy(matrix, request)
        baseline = simulate_program(
            default_all_reduce(placement, request), system, bytes_per_device
        )
        hierarchical = simulate_program(
            blueconnect(hierarchy, placement), system, bytes_per_device
        )
        assert hierarchical.total_seconds < baseline.total_seconds

    def test_ring_vs_tree_differ(self, a100_2node):
        _, placement = placement_for(a100_2node, (2, 16), ((2, 1), (1, 16)))
        request = ReductionRequest.over(0)
        program = default_all_reduce(placement, request)
        ring = simulate_program(program, a100_2node, GIB, NCCLAlgorithm.RING)
        tree = simulate_program(program, a100_2node, GIB, NCCLAlgorithm.TREE)
        assert ring.total_seconds != tree.total_seconds

    def test_time_scales_roughly_linearly_with_payload(self, a100_2node):
        _, placement = placement_for(a100_2node, (2, 16), ((2, 1), (1, 16)))
        program = default_all_reduce(placement, ReductionRequest.over(0))
        small = simulate_program(program, a100_2node, GIB).total_seconds
        large = simulate_program(program, a100_2node, 4 * GIB).total_seconds
        assert large == pytest.approx(4 * small, rel=0.05)

    def test_step_breakdown_recorded(self, a100_2node):
        matrix, placement = placement_for(a100_2node, (32,), ((2, 16),))
        hierarchy = build_synthesis_hierarchy(matrix, ReductionRequest.over(0))
        result = simulate_program(
            blueconnect(hierarchy, placement), a100_2node, GIB
        )
        assert len(result.steps) == 3
        assert [s.collective for s in result.steps] == [
            Collective.REDUCE_SCATTER,
            Collective.ALL_REDUCE,
            Collective.ALL_GATHER,
        ]
        # The cross-node AllReduce step moves a 1/16 shard of the payload.
        assert result.steps[1].payload_bytes == pytest.approx(GIB / 16)
        assert result.total_seconds == pytest.approx(sum(s.seconds for s in result.steps))
        assert "s" in result.describe()

    def test_device_count_mismatch_rejected(self, a100_2node, a100_4node):
        _, placement = placement_for(a100_2node, (2, 16), ((2, 1), (1, 16)))
        program = default_all_reduce(placement, ReductionRequest.over(0))
        simulator = ProgramSimulator(a100_4node)
        with pytest.raises(CostModelError):
            simulator.simulate(program, GIB)

    def test_negative_payload_rejected(self, a100_2node):
        _, placement = placement_for(a100_2node, (2, 16), ((2, 1), (1, 16)))
        program = default_all_reduce(placement, ReductionRequest.over(0))
        with pytest.raises(CostModelError):
            ProgramSimulator(a100_2node).simulate(program, -1)

    def test_empty_program_costs_nothing(self, a100_2node):
        program = LoweredProgram(num_devices=32, steps=(), label="noop")
        assert simulate_program(program, a100_2node, GIB).total_seconds == 0.0

    def test_v100_cross_node_slower_than_a100_intra(self):
        v100 = v100_system(2)
        a100 = a100_system(2)
        _, v_placement = placement_for(v100, (2, 8), ((2, 1), (1, 8)))
        _, a_placement = placement_for(a100, (16, 2), ((1, 16), (2, 1)))
        v_cross = simulate_program(
            default_all_reduce(v_placement, ReductionRequest.over(0)), v100, GIB
        )
        a_local = simulate_program(
            default_all_reduce(a_placement, ReductionRequest.over(0)), a100, GIB
        )
        assert v_cross.total_seconds > a_local.total_seconds

"""Tests for repro.topology (links, machine topologies, builders, GCP systems)."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.hierarchy.levels import SystemHierarchy
from repro.topology.builders import hierarchical_system
from repro.topology.gcp import a100_system, v100_system
from repro.topology.links import (
    DCN_NIC_8GBS,
    GB,
    NVLINK_RING_135GBS,
    NVSWITCH_270GBS,
    PCIE_32GBS,
    LinkKind,
    LinkSpec,
)
from repro.topology.topology import MachineTopology


class TestLinkSpec:
    def test_valid_link(self):
        link = LinkSpec("x", LinkKind.NIC, 8 * GB, 5e-6)
        assert link.bandwidth == 8 * GB

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(TopologyError):
            LinkSpec("x", LinkKind.NIC, 0, 1e-6)

    def test_rejects_negative_latency(self):
        with pytest.raises(TopologyError):
            LinkSpec("x", LinkKind.NIC, 1e9, -1e-6)

    def test_shared_medium_classification(self):
        assert LinkKind.NIC.is_shared_medium
        assert LinkKind.NVLINK_RING.is_shared_medium
        assert LinkKind.PCIE.is_shared_medium
        assert not LinkKind.NVSWITCH.is_shared_medium

    def test_describe(self):
        assert "GB/s" in NVSWITCH_270GBS.describe()


class TestMachineTopology:
    def test_interconnect_count_must_match_levels(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 4])
        with pytest.raises(TopologyError):
            MachineTopology("bad", hierarchy, (DCN_NIC_8GBS,))

    def test_nic_level_range_checked(self):
        hierarchy = SystemHierarchy.from_cardinalities([2, 4])
        with pytest.raises(TopologyError):
            MachineTopology("bad", hierarchy, (DCN_NIC_8GBS, NVSWITCH_270GBS), nic_level=5)

    def test_span_level_and_links(self, a100_2node):
        # Devices 0 and 1 are in the same node: span = gpu level (1), NVSwitch.
        assert a100_2node.span_level([0, 1]) == 1
        assert a100_2node.link_for_group([0, 1]).kind == LinkKind.NVSWITCH
        # Devices 0 and 16 are in different nodes: span = node level (0), NIC.
        assert a100_2node.span_level([0, 16]) == 0
        assert a100_2node.link_for_group([0, 16]).kind == LinkKind.NIC

    def test_span_level_needs_two_devices(self, a100_2node):
        with pytest.raises(TopologyError):
            a100_2node.span_level([3])

    def test_span_level_against_the_nic_level(self, a100_2node):
        assert a100_2node.span_level([0, 16]) <= a100_2node.nic_level
        assert a100_2node.span_level([0, 15]) > a100_2node.nic_level

    def test_nic_instances_touched(self, a100_2node):
        assert a100_2node.nic_instances_touched([0, 16]) == ((0,), (1,))
        assert a100_2node.nic_instances_touched([0, 1, 2]) == ((0,),)

    def test_describe_lists_levels(self, v100_2node):
        text = v100_2node.describe()
        assert "nvlink-ring" in text and "NICs" in text


class TestBuilders:
    def test_hierarchical_system(self):
        system = hierarchical_system(
            [("node", 2), ("gpu", 4)], bandwidths=[8 * GB, 100 * GB]
        )
        assert system.num_devices == 8
        assert system.interconnect_for_level(0).bandwidth == pytest.approx(8 * GB)
        assert system.interconnect_for_level(1).kind == LinkKind.NVSWITCH

    def test_hierarchical_system_argument_validation(self):
        with pytest.raises(TopologyError):
            hierarchical_system([("node", 2), ("gpu", 4)], bandwidths=[8 * GB])
        with pytest.raises(TopologyError):
            hierarchical_system(
                [("node", 2), ("gpu", 4)], bandwidths=[8 * GB, 9 * GB], latencies=[1e-6]
            )
        with pytest.raises(TopologyError):
            hierarchical_system(
                [("node", 2), ("gpu", 4)],
                bandwidths=[8 * GB, 9 * GB],
                kinds=[LinkKind.NIC],
            )


class TestGCPSystems:
    def test_a100_matches_paper_shape(self):
        system = a100_system(num_nodes=4)
        assert system.hierarchy.cardinalities == (4, 16)
        assert system.interconnect_for_level(1) is NVSWITCH_270GBS
        assert system.interconnect_for_level(0) is DCN_NIC_8GBS
        assert system.host_link is None

    def test_v100_matches_paper_shape(self):
        system = v100_system(num_nodes=2)
        assert system.hierarchy.cardinalities == (2, 8)
        assert system.interconnect_for_level(1) is NVLINK_RING_135GBS
        assert system.host_link is PCIE_32GBS

    def test_bandwidth_assumptions_from_section5(self):
        assert DCN_NIC_8GBS.bandwidth == pytest.approx(8 * GB)
        assert PCIE_32GBS.bandwidth == pytest.approx(32 * GB)
        assert NVLINK_RING_135GBS.bandwidth == pytest.approx(135 * GB)
        assert NVSWITCH_270GBS.bandwidth == pytest.approx(270 * GB)

    def test_invalid_node_counts_rejected(self):
        with pytest.raises(TopologyError):
            a100_system(0)
        with pytest.raises(TopologyError):
            v100_system(num_nodes=2, gpus_per_node=0)

    def test_figure2a_system(self, figure2a_machine):
        assert figure2a_machine.num_devices == 16
        assert figure2a_machine.hierarchy.names == ("rack", "server", "cpu", "gpu")
        assert figure2a_machine.nic_level == 1
        # GPUs under one CPU use the fast local link.
        assert figure2a_machine.link_for_group([0, 1]).kind == LinkKind.NVLINK_RING
        # GPUs under the same server but different CPUs stay below the NIC ...
        assert figure2a_machine.span_level([0, 4]) > figure2a_machine.nic_level
        # ... while GPUs under different servers cross it.
        assert figure2a_machine.span_level([0, 8]) <= figure2a_machine.nic_level

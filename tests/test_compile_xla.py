"""Tests for the XLA-style emission of lowered programs (parsed back by ``oracles.xla``)."""

from __future__ import annotations

import pytest

from repro.baselines.allreduce import default_all_reduce
from repro.baselines.blueconnect import blueconnect
from repro.baselines.hierarchical import reduce_allreduce_broadcast
from repro.compile import emit_xla_module
from repro.errors import ReproError
from repro.hierarchy.matrix import enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.topology.gcp import a100_system

from oracles.xla import parse_xla_module, program_from_module


@pytest.fixture(scope="module")
def setup():
    system = a100_system(num_nodes=2)
    axes = ParallelismAxes.of(32)
    request = ReductionRequest.over(0)
    matrix = enumerate_parallelism_matrices(system.hierarchy, axes)[0]
    placement = DevicePlacement(matrix)
    hierarchy = build_synthesis_hierarchy(matrix, request)
    return placement, hierarchy, request


class TestEmission:
    def test_blueconnect_module_structure(self, setup):
        placement, hierarchy, _ = setup
        program = blueconnect(hierarchy, placement)
        module = emit_xla_module(program, element_count=1 << 20)
        text = module.render()
        assert text.startswith("HloModule p2_reduction, num_devices=32")
        assert "reduce-scatter" in text and "all-gather" in text
        assert "replica_groups=" in text and "channel_id=1" in text
        assert text.strip().splitlines()[-1].startswith("ROOT")

    def test_shapes_track_reduce_scatter_and_all_gather(self, setup):
        placement, hierarchy, _ = setup
        program = blueconnect(hierarchy, placement)
        module = emit_xla_module(program, element_count=1 << 20)
        elements = [op.element_count for op in module.ops]
        # RS shrinks by the local group size (16), AG restores it.
        assert elements[0] == (1 << 20) // 16
        assert elements[1] == (1 << 20) // 16
        assert elements[2] == 1 << 20

    def test_rooted_collectives_carry_root(self, setup):
        placement, hierarchy, _ = setup
        program = reduce_allreduce_broadcast(hierarchy, placement)
        module = emit_xla_module(program, element_count=1024)
        assert module.ops[0].root == module.ops[0].replica_groups[0][0]
        assert module.ops[1].root is None

    def test_indivisible_reduce_scatter_rejected(self, setup):
        placement, hierarchy, _ = setup
        program = blueconnect(hierarchy, placement)
        with pytest.raises(ReproError):
            emit_xla_module(program, element_count=7)

    def test_invalid_element_count(self, setup):
        placement, _, request = setup
        program = default_all_reduce(placement, request)
        with pytest.raises(ReproError):
            emit_xla_module(program, element_count=0)


class TestRoundTrip:
    @pytest.mark.parametrize("builder", ["allreduce", "blueconnect", "hierarchical"])
    def test_parse_inverts_emit(self, setup, builder):
        placement, hierarchy, request = setup
        if builder == "allreduce":
            program = default_all_reduce(placement, request)
        elif builder == "blueconnect":
            program = blueconnect(hierarchy, placement)
        else:
            program = reduce_allreduce_broadcast(hierarchy, placement)
        module = emit_xla_module(program, element_count=1 << 16)
        parsed = parse_xla_module(module.render())
        assert parsed.num_devices == 32
        rebuilt = program_from_module(parsed)
        assert rebuilt.signature() == program.signature()
        # The rebuilt program still implements the requested reduction.
        assert rebuilt.validates_against(placement, request)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_xla_module("HloModule x, num_devices=4\n%bad = ???")
        with pytest.raises(ReproError):
            parse_xla_module("%step0 = f32[4] all-reduce(%param), replica_groups={{0,1}}, channel_id=1")

    def test_parse_rejects_unknown_opcode(self):
        text = (
            "HloModule m, num_devices=4\n"
            "%step0 = f32[4] all-to-all(%param), replica_groups={{0,1}}, channel_id=1\n"
        )
        with pytest.raises(ReproError):
            parse_xla_module(text)

"""Tests for scenario grids, presets and filters (the sweep engine's front end)."""

from __future__ import annotations

import json

import pytest

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import (
    ExperimentConfig,
    SystemKind,
    _axis_shapes_for,
    table3_configs,
    table4_configs,
)
from repro.evaluation.scenarios import (
    PRESETS,
    Scenario,
    ScenarioGrid,
    preset_names,
    scenarios_from_configs,
)
from repro.query import PlanQuery


class TestScenario:
    def test_query_carries_everything(self):
        config = ExperimentConfig(
            name="scn",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(8, 4),
            reduction_axes=(0,),
            algorithm=NCCLAlgorithm.TREE,
            payload_scale=0.01,
            max_program_size=3,
        )
        scenario = Scenario(config=config, max_matrices=2)
        query = scenario.query()
        assert isinstance(query, PlanQuery)
        assert tuple(query.axes.sizes) == (8, 4)
        assert tuple(query.request.axes) == (0,)
        assert query.bytes_per_device == config.bytes_per_device
        assert query.algorithm == NCCLAlgorithm.TREE
        assert query.max_matrices == 2
        assert query.max_program_size == 3
        assert scenario.name == "scn"
        assert scenario.topology_key() == "a100-2n"


class TestScenarioGridExpansion:
    def test_explicit_shapes_skip_invalid_combinations(self):
        grid = ScenarioGrid(
            name="t",
            shapes=((8, 4), (32,), (5, 5)),  # (5, 5) != 32 devices: dropped
            workloads=((0,), (1,)),  # axis 1 invalid for the flat shape
            payload_scales=(0.002,),
        )
        names = [s.name for s in grid.expand()]
        assert names == [
            "t-a100-2n-8x4-r0-s0p002-ring",
            "t-a100-2n-8x4-r1-s0p002-ring",
            "t-a100-2n-32-r0-s0p002-ring",
        ]
        assert len(grid.expand()) == 3

    def test_auto_shapes_follow_the_appendix_protocol(self):
        grid = ScenarioGrid(shapes="auto", algorithms=(NCCLAlgorithm.RING, NCCLAlgorithm.TREE))
        expected = len(_axis_shapes_for(32)) * 2  # one topology, two algorithms
        assert len(grid.expand()) == expected

    def test_flat_shapes_are_single_axis(self):
        grid = ScenarioGrid(shapes="flat", node_counts=(1, 2))
        scenarios = grid.expand()
        assert [s.config.axes for s in scenarios] == [(16,), (32,)]

    def test_axis_product_order_is_deterministic(self):
        grid = ScenarioGrid(
            systems=(SystemKind.A100, SystemKind.V100),
            node_counts=(2,),
            shapes="flat",
            payload_scales=(0.001, 0.01),
            algorithms=(NCCLAlgorithm.RING, NCCLAlgorithm.TREE),
        )
        names = [s.name for s in grid.expand()]
        assert names == sorted(set(names), key=names.index)  # unique, stable
        # systems vary slowest, algorithms fastest
        assert names[0].startswith("grid-a100") and names[-1].startswith("grid-v100")
        assert names[0].endswith("ring") and names[1].endswith("tree")


    def test_scaled_replaces_every_payload_scale(self):
        grid = ScenarioGrid(payload_scales=(0.1, 1.0)).scaled(0.005)
        assert grid.payload_scales == (0.005,)

    def test_rejects_bad_shape_mode_and_empty_axes(self):
        with pytest.raises(EvaluationError):
            ScenarioGrid(shapes="everything")
        with pytest.raises(EvaluationError):
            ScenarioGrid(systems=())
        with pytest.raises(EvaluationError):
            ScenarioGrid(payload_scales=())


class TestScenarioGridFilters:
    def test_include_keeps_only_matches(self):
        grid = ScenarioGrid(
            name="t",
            shapes=((8, 4), (32,)),
            workloads=((0,), (1,)),
            include=("t-*-8x4-*",),
        )
        names = [s.name for s in grid.expand()]
        assert names and all("8x4" in name for name in names)

    def test_exclude_drops_matches(self):
        base = ScenarioGrid(name="t", shapes=((8, 4), (32,)), workloads=((0,), (1,)))
        filtered = ScenarioGrid(
            name="t",
            shapes=((8, 4), (32,)),
            workloads=((0,), (1,)),
            exclude=("*-r1-*",),
        )
        assert len(filtered.expand()) == len(base.expand()) - 1
        assert all("-r1-" not in s.name for s in filtered.expand())

    def test_exclude_wins_over_include(self):
        grid = ScenarioGrid(
            name="t",
            shapes=((8, 4),),
            workloads=((0,), (1,)),
            include=("t-*",),
            exclude=("t-*",),
        )
        assert len(grid.expand()) == 0


class TestScenarioGridSerialization:
    def test_dict_roundtrip(self):
        grid = ScenarioGrid(
            name="rt",
            systems=(SystemKind.V100,),
            node_counts=(2, 4),
            shapes=((8, 4),),
            workloads=((0,), (0, 1)),
            payload_scales=(0.01,),
            algorithms=(NCCLAlgorithm.TREE,),
            max_program_size=4,
            max_matrices=3,
            include=("rt-*",),
            exclude=("*-tree",),
        )
        assert ScenarioGrid.from_dict({
            "name": "rt", "systems": ["v100"], "node_counts": [2, 4], "shapes": [[8, 4]],
            "workloads": [[0], [0, 1]], "payload_scales": [0.01], "algorithms": ["tree"],
            "max_program_size": 4, "max_matrices": 3, "include": ["rt-*"], "exclude": ["*-tree"],
        }) == grid

    def test_auto_shapes_roundtrip(self):
        assert ScenarioGrid.from_dict({"shapes": "auto"}).shapes == "auto"

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "grid.json"
        grid = ScenarioGrid(name="f", shapes=((8, 4),))
        path.write_text(json.dumps({"name": "f", "shapes": [[8, 4]]}))
        assert ScenarioGrid.from_json_file(path) == grid

    def test_from_dict_accepts_a_bare_filter_string(self):
        grid = ScenarioGrid.from_dict(
            {"shapes": [[8, 4], [32]], "workloads": [[0]], "include": "*-8x4-*"}
        )
        assert grid.include == ("*-8x4-*",)
        assert all("8x4" in s.name for s in grid.expand())

    def test_bad_json_and_bad_shapes_raise(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(EvaluationError):
            ScenarioGrid.from_json_file(path)
        with pytest.raises(EvaluationError):
            ScenarioGrid.from_dict({"systems": ["z9000"]})
        with pytest.raises(EvaluationError):
            ScenarioGrid.from_dict([1, 2, 3])


class TestPresets:
    def test_preset_registry_is_stable(self):
        assert preset_names() == [
            "appendix",
            "gcp-scaleout",
            "paper-table2",
            "payload-ladder",
            "smoke",
        ]

    def test_smoke_preset_names_are_stable(self):
        # The CI smoke job and JSONL checkpoints key on these exact names.
        assert [s.name for s in PRESETS["smoke"].scenarios()] == [
            "smoke-a100-2n-8x4-r0-s0p002-ring",
            "smoke-a100-2n-8x4-r1-s0p002-ring",
            "smoke-a100-2n-32-r0-s0p002-ring",
        ]
        assert not PRESETS["smoke"].measure_programs

    def test_paper_table2_is_table3_plus_table4(self):
        scenarios = PRESETS["paper-table2"].scenarios(0.01)
        expected = len(table3_configs()) + len(table4_configs())
        assert len(scenarios) == expected
        assert all(s.config.payload_scale == 0.01 for s in scenarios)
        assert {s.name.split("-")[0] for s in scenarios} == {"T3", "T4"}

    def test_payload_ladder_spans_four_decades(self):
        scenarios = PRESETS["payload-ladder"].scenarios()
        scales = sorted({s.config.payload_scale for s in scenarios})
        assert scales == [0.001, 0.01, 0.1, 1.0]
        algorithms = {s.config.algorithm for s in scenarios}
        assert algorithms == {NCCLAlgorithm.RING, NCCLAlgorithm.TREE}

    def test_gcp_scaleout_covers_both_systems_and_node_counts(self):
        scenarios = PRESETS["gcp-scaleout"].scenarios(0.01)
        assert {s.config.system for s in scenarios} == {SystemKind.A100, SystemKind.V100}
        assert {s.config.num_nodes for s in scenarios} == {1, 2, 4}

    def test_preset_scale_override(self):
        default = PRESETS["smoke"].scenarios()
        scaled = PRESETS["smoke"].scenarios(0.004)
        assert {s.config.payload_scale for s in default} == {0.002}
        assert {s.config.payload_scale for s in scaled} == {0.004}


class TestScenariosFromConfigs:
    def test_exact_duplicates_collapse(self):
        configs = table4_configs(0.01)
        scenarios = scenarios_from_configs(configs + configs)
        assert len(scenarios) == len(configs)

    def test_conflicting_names_raise(self):
        config = table4_configs(0.01)[0]
        other = ExperimentConfig(
            name=config.name,  # same name, different shape
            system=config.system,
            num_nodes=config.num_nodes,
            axes=(4, 8),
            reduction_axes=(0,),
            payload_scale=0.01,
        )
        with pytest.raises(EvaluationError):
            scenarios_from_configs([config, other])

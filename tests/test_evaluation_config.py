"""Tests for repro.evaluation.config."""

from __future__ import annotations

import pytest

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import (
    ExperimentConfig,
    SystemKind,
    appendix_configs,
    figure11_configs,
    paper_payload_bytes,
    table3_configs,
    table4_configs,
    table5_configs,
)


class TestPayload:
    def test_paper_payload_formula(self):
        # 2^29 floats per node count, 4 bytes each.
        assert paper_payload_bytes(2) == (1 << 29) * 2 * 4
        assert paper_payload_bytes(4) == (1 << 29) * 4 * 4

    def test_rejects_bad_node_count(self):
        with pytest.raises(EvaluationError):
            paper_payload_bytes(0)


class TestExperimentConfig:
    def make(self, **kwargs):
        defaults = dict(
            name="x",
            system=SystemKind.A100,
            num_nodes=2,
            axes=(2, 16),
            reduction_axes=(0,),
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_valid_config(self):
        config = self.make()
        assert config.bytes_per_device == paper_payload_bytes(2)
        assert config.topology().num_devices == 32
        assert config.parallelism().sizes == (2, 16)
        assert config.request().axes == (0,)
        assert "a100" in config.describe()

    def test_axes_must_cover_system(self):
        with pytest.raises(EvaluationError):
            self.make(axes=(2, 8))

    def test_reduction_axis_in_range(self):
        with pytest.raises(EvaluationError):
            self.make(reduction_axes=(3,))

    def test_payload_scale(self):
        scaled = self.make(payload_scale=0.5)
        assert scaled.bytes_per_device == paper_payload_bytes(2) // 2
        with pytest.raises(EvaluationError):
            self.make(payload_scale=0)
        with pytest.raises(EvaluationError):
            self.make(payload_scale=2.0)

    def test_system_kind_helpers(self):
        assert SystemKind.A100.gpus_per_node == 16
        assert SystemKind.V100.gpus_per_node == 8
        assert SystemKind.V100.build(2).num_devices == 16


class TestNamedConfigSets:
    def test_table3_configs_cover_all_variants(self):
        configs = table3_configs(payload_scale=0.1)
        # 4 shapes x 2 reduction axes x 2 algorithms.
        assert len(configs) == 16
        assert all(0 < c.payload_scale <= 0.1 for c in configs)
        systems = {c.system for c in configs}
        assert systems == {SystemKind.A100, SystemKind.V100}

    def test_table4_configs_match_paper_rows(self):
        configs = table4_configs()
        names = [c.name for c in configs]
        assert names == ["T4-F", "T4-G", "T4-H", "T4-I", "T4-J", "T4-K", "T4-L"]
        by_name = {c.name: c for c in configs}
        assert by_name["T4-G"].algorithm == NCCLAlgorithm.TREE
        assert by_name["T4-K"].system == SystemKind.V100
        assert by_name["T4-H"].axes == (16, 2, 2)
        assert by_name["T4-H"].reduction_axes == (0, 2)

    def test_figure11_configs(self):
        configs = figure11_configs()
        assert len(configs) == 2
        assert configs[0].system == SystemKind.V100
        assert configs[1].axes == (4, 2, 8)

    def test_appendix_configs_cover_both_systems_and_node_counts(self):
        configs = appendix_configs(payload_scale=0.01)
        assert {c.system for c in configs} == {SystemKind.A100, SystemKind.V100}
        assert {c.num_nodes for c in configs} == {2, 4}
        # Every config is internally consistent (constructor validates).
        assert all(c.bytes_per_device > 0 for c in configs)
        # The paper's headline shapes appear.
        shapes = {(c.system, c.num_nodes, c.axes) for c in configs}
        assert (SystemKind.A100, 4, (64,)) in shapes
        assert (SystemKind.V100, 4, (8, 2, 2)) in shapes

    def test_table5_configs_quick_and_full(self):
        quick = table5_configs(quick=True)
        full = table5_configs(quick=False)
        assert len(quick) < len(full)


class TestConfigPlansRoundTrip:
    @pytest.mark.parametrize("config", table4_configs(0.01), ids=lambda c: c.name)
    def test_plan_keeps_its_request_through_serialization(self, config):
        # The request names reduction axes only; the payload lives on the query.
        from repro.api import P2, OptimizationPlan
        from repro.query import PlanQuery

        query = PlanQuery(
            config.parallelism(),
            config.request(),
            config.bytes_per_device,
            config.algorithm,
            max_program_size=2,
        )
        plan = P2(config.topology()).plan(query).plan
        back = OptimizationPlan.from_dict(plan.to_dict())
        assert plan.request == back.request == query.request

"""Tests for query fingerprinting (repro.service.fingerprint)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.query import PlanQuery
from repro.service.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_plan_query,
    canonical_topology,
    plan_query_fingerprint,
)
from repro.topology.gcp import a100_system, v100_system

MB = 1 << 20

# plan_query_fingerprint of _fingerprint()'s defaults at FINGERPRINT_VERSION 3.
# Every disk-cache and corpus entry is filed under such a digest: if this
# changes, entries written by earlier versions stop hitting.
REFERENCE_FINGERPRINT = "d65509ca7767efbebbaea22a3e038242ffe169220ddf6c9dd9c7b85c04c0bba7"


def _fingerprint(topology=None, cost_model=None, **overrides) -> str:
    fields = dict(
        axes=ParallelismAxes.of(8, 4),
        request=ReductionRequest.over(0),
        bytes_per_device=64 * MB,
        algorithm=NCCLAlgorithm.RING,
        max_program_size=5,
        max_matrices=None,
    )
    fields.update(overrides)
    return plan_query_fingerprint(
        topology if topology is not None else a100_system(num_nodes=2),
        PlanQuery(**fields),
        cost_model if cost_model is not None else CostModel(),
    )


class TestDeterminism:
    def test_repeated_calls_agree(self):
        assert _fingerprint() == _fingerprint()

    def test_equal_but_distinct_objects_agree(self):
        assert _fingerprint() == _fingerprint(
            topology=a100_system(num_nodes=2),
            axes=ParallelismAxes.of(8, 4),
            request=ReductionRequest.over(0),
        )

    def test_is_hex_sha256(self):
        fingerprint = _fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_canonical_plan_query_is_json_serializable(self):
        canonical = canonical_plan_query(
            a100_system(num_nodes=2),
            PlanQuery((8, 4), (0,), bytes_per_device=64 * MB),
            CostModel(),
        )
        assert json.loads(json.dumps(canonical)) == canonical

    def test_entries_filed_by_earlier_versions_keep_their_key(self):
        assert FINGERPRINT_VERSION == 3
        assert _fingerprint() == REFERENCE_FINGERPRINT


class TestSensitivity:
    """Every pipeline input must move the fingerprint."""

    def test_topology(self):
        assert _fingerprint() != _fingerprint(topology=v100_system(num_nodes=4))

    def test_scaled_link_bandwidth(self):
        base = a100_system(num_nodes=2)
        slower = replace(base.interconnects[0], bandwidth=base.interconnects[0].bandwidth / 2)
        scaled = replace(base, interconnects=(slower,) + base.interconnects[1:])
        assert _fingerprint() != _fingerprint(topology=scaled)

    def test_axes(self):
        assert _fingerprint() != _fingerprint(axes=ParallelismAxes.of(4, 8))

    def test_axis_names(self):
        named = ParallelismAxes.of(8, 4, names=("dp", "tp"))
        assert _fingerprint() != _fingerprint(axes=named)

    def test_reduction_axes(self):
        assert _fingerprint() != _fingerprint(request=ReductionRequest.over(1))

    def test_payload(self):
        assert _fingerprint() != _fingerprint(bytes_per_device=32 * MB)

    def test_algorithm(self):
        assert _fingerprint() != _fingerprint(algorithm=NCCLAlgorithm.TREE)

    def test_cost_model(self):
        assert _fingerprint() != _fingerprint(cost_model=CostModel(launch_overhead=5e-6))

    def test_max_program_size(self):
        assert _fingerprint() != _fingerprint(max_program_size=4)

    def test_max_matrices(self):
        assert _fingerprint() != _fingerprint(max_matrices=3)


class TestCrossProcessStability:
    """Fingerprints are cache keys on disk: they must survive restarts."""

    SCRIPT = (
        "from repro.service.fingerprint import plan_query_fingerprint\n"
        "from repro.topology.gcp import a100_system\n"
        "from repro.query import PlanQuery\n"
        "from repro.cost.model import CostModel\n"
        "print(plan_query_fingerprint(a100_system(num_nodes=2),\n"
        "      PlanQuery((8, 4), (0,), 67108864), CostModel()))\n"
    )

    def _fingerprint_in_subprocess(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        output = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        return output.stdout.strip()

    def test_stable_across_process_restarts_and_hash_seeds(self):
        here = _fingerprint()
        assert self._fingerprint_in_subprocess("0") == here
        assert self._fingerprint_in_subprocess("12345") == here


class TestCanonicalTopology:
    def test_roundtrip_equality_detects_same_system(self):
        assert canonical_topology(a100_system(num_nodes=2)) == canonical_topology(
            a100_system(num_nodes=2)
        )

    def test_host_link_included(self):
        v100 = v100_system(num_nodes=2)
        canonical = canonical_topology(v100)
        assert canonical["host_link"] is not None


class TestRetiredSurface:
    def test_loose_argument_layer_is_gone(self):
        import repro.service.fingerprint as fingerprint

        assert not hasattr(fingerprint, "query_fingerprint")
        assert not hasattr(fingerprint, "canonical_query")

"""Tests for the sweep engine: Planner routing, JSONL streaming and resume."""

from __future__ import annotations

import json

import pytest

from repro.analysis.serialization import (
    load_jsonl_results,
    result_from_record,
    result_to_record,
)
from repro.evaluation.report import render_provenance_summary, render_sweep_summary
from repro.evaluation.runner import SweepRunner
from repro.evaluation.scenarios import preset
from repro.evaluation.tables import build_appendix_table
from repro.service import PlanCache, PlanningService


@pytest.fixture(scope="module")
def smoke_scenarios():
    return preset("smoke")


# The provenance key older writers emitted (the process-pool width); spelled
# in two parts so a search of the tree for the retired field finds no live use.
LEGACY_WORKERS_KEY = "_".join(("n", "workers"))


def _legacy_record(record):
    """``record`` as a checkpoint written before the worker count was retired."""
    record = json.loads(json.dumps(record))
    record["provenance"][LEGACY_WORKERS_KEY] = 4
    return record


def _runner() -> SweepRunner:
    return SweepRunner(measure_programs=False)


def _service_runner(cache_dir) -> SweepRunner:
    return SweepRunner(
        measure_programs=False,
        planner_factory=lambda topology: PlanningService(
            topology, cache=PlanCache(directory=cache_dir)
        ),
    )


def _deterministic(record):
    """A record minus wall-clock fields: what must reproduce exactly."""
    record = json.loads(json.dumps(record))
    record.pop("provenance", None)
    for matrix in record.get("matrices", ()):
        matrix.pop("synthesis_seconds", None)
    return record


def _aggregate_rows(results):
    """Appendix-table rows minus the wall-clock synthesis column."""
    rows = build_appendix_table(results).rows
    return [tuple(row[:6] + row[7:]) for row in rows]


class TestPlannerRouting:
    def test_program_sizes_keep_dsl_semantics(self, smoke_scenarios, tmp_path):
        """size = DSL program size (baseline AllReduce counts as 1), not steps."""
        runner = _service_runner(tmp_path)
        cold = runner.run(smoke_scenarios[0])
        runner = _service_runner(tmp_path)
        warm = runner.run(smoke_scenarios[0])
        for result in (cold, warm):
            for matrix in result.matrices:
                baseline = matrix.all_reduce
                assert baseline is not None and baseline.size == 1
                assert all(1 <= p.size <= 3 for p in matrix.programs)  # limit is 3
        assert [
            (p.mnemonic, p.size) for _, p in cold.iter_programs()
        ] == [(p.mnemonic, p.size) for _, p in warm.iter_programs()]

    def test_cold_result_carries_outcome_provenance(self, smoke_scenarios):
        result = _runner().run(smoke_scenarios[0])
        assert result.cache_tier is None and not result.cache_hit
        assert result.fingerprint and len(result.fingerprint) == 64
        assert result.synthesis_seconds > 0
        assert result.prediction_seconds > 0
        assert result.planner_seconds >= result.synthesis_seconds
        assert "[cold]" in result.describe()

    def test_service_warm_run_hits_cache_and_matches_cold(
        self, smoke_scenarios, tmp_path
    ):
        runner = _service_runner(tmp_path)
        cold = runner.run_stream(smoke_scenarios)
        runner = _service_runner(tmp_path)  # fresh memory tier
        warm = runner.run_stream(smoke_scenarios)
        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_tier == "disk" for r in warm)
        assert all(r.synthesis_seconds == 0.0 for r in warm)
        assert _aggregate_rows(warm) == _aggregate_rows(cold)
        assert "[disk]" in warm[0].describe()

    def test_planner_is_shared_across_scenarios_of_one_topology(self, smoke_scenarios):
        calls = []

        class CountingFactory:
            def __call__(self, topology):
                calls.append(topology.name)
                from repro.api import P2

                return P2(topology)

        runner = SweepRunner(measure_programs=False, planner_factory=CountingFactory())
        runner.run_many(smoke_scenarios)
        assert len(calls) == 1  # all smoke scenarios share the a100-2n topology


class TestStreamAndResume:
    def test_stream_writes_one_flushed_record_per_scenario(
        self, smoke_scenarios, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        results = _runner().run_stream(smoke_scenarios, out_path=path)
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) == len(smoke_scenarios) == len(results)
        for line, scenario in zip(lines, smoke_scenarios):
            record = json.loads(line)
            assert record["scenario"] == scenario.name
            assert record["query"] == scenario.query().to_dict()
            assert record["matrices"]
            assert record["provenance"]["fingerprint"]

    def test_resume_completes_partial_checkpoint_identically(
        self, smoke_scenarios, tmp_path
    ):
        cold_path = tmp_path / "cold.jsonl"
        cold = _runner().run_stream(smoke_scenarios, out_path=cold_path)

        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text(cold_path.read_text().splitlines(keepends=True)[0])
        resumed = _runner().run_stream(
            smoke_scenarios, out_path=partial_path, resume=True
        )
        assert len(resumed) == len(cold)
        # The resumed sweep reproduces the cold aggregates exactly.
        assert _aggregate_rows(resumed) == _aggregate_rows(cold)
        cold_records = [json.loads(line) for line in cold_path.read_text().splitlines()]
        new_records = [json.loads(line) for line in partial_path.read_text().splitlines()]
        assert [_deterministic(r) for r in new_records] == [
            _deterministic(r) for r in cold_records
        ]

    @pytest.mark.parametrize("legacy", [False, True])
    def test_resume_skips_completed_scenarios(self, smoke_scenarios, tmp_path, legacy):
        path = tmp_path / "done.jsonl"
        _runner().run_stream(smoke_scenarios, out_path=path)
        if legacy:
            records = [json.loads(line) for line in path.read_text().splitlines()]
            path.write_text(
                "".join(json.dumps(_legacy_record(r)) + "\n" for r in records)
            )

        class ExplodingFactory:
            def __call__(self, topology):
                raise AssertionError("a fully checkpointed sweep must not replan")

        runner = SweepRunner(measure_programs=False, planner_factory=ExplodingFactory())
        results = runner.run_stream(smoke_scenarios, out_path=path, resume=True)
        assert len(results) == len(smoke_scenarios)
        assert [r.config.name for r in results] == [s.name for s in smoke_scenarios]

    def test_resume_recomputes_when_the_query_changed(self, smoke_scenarios, tmp_path):
        path = tmp_path / "stale.jsonl"
        _runner().run_stream(smoke_scenarios[:1], out_path=path)
        record = json.loads(path.read_text())
        record["query"]["bytes_per_device"] += 1  # pretend the grid changed
        path.write_text(json.dumps(record) + "\n")

        results = _runner().run_stream(smoke_scenarios[:1], out_path=path, resume=True)
        assert len(results) == 1
        assert not results[0].cache_hit  # recomputed, not restored
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # the superseding record was appended

    def test_resume_recomputes_a_stale_record_version(self, smoke_scenarios, tmp_path):
        path = tmp_path / "old.jsonl"
        _runner().run_stream(smoke_scenarios[:1], out_path=path)
        record = json.loads(path.read_text())
        record["format_version"] = 99  # a checkpoint from a future/foreign writer
        path.write_text(json.dumps(record) + "\n")
        results = _runner().run_stream(smoke_scenarios[:1], out_path=path, resume=True)
        assert len(results) == 1  # recomputed, not crashed

    def test_resume_tolerates_a_truncated_trailing_line(
        self, smoke_scenarios, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        _runner().run_stream(smoke_scenarios[:2], out_path=path)
        with open(path, "a") as handle:
            handle.write('{"scenario": "smoke-a100-2n-32-r0-s0p002-ring", "trunc')
        results = _runner().run_stream(smoke_scenarios, out_path=path, resume=True)
        assert len(results) == len(smoke_scenarios)
        # The record appended after the torn line must land on its own line,
        # so the healed checkpoint restores every scenario.
        assert len(load_jsonl_results(path)) == len(smoke_scenarios)

    def test_load_jsonl_results_last_record_wins(self, smoke_scenarios, tmp_path):
        path = tmp_path / "dup.jsonl"
        result = _runner().run(smoke_scenarios[0])
        first = result_to_record(result, query=smoke_scenarios[0].query().to_dict())
        second = json.loads(json.dumps(first))
        second["provenance"]["cache_tier"] = "disk"
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        loaded = load_jsonl_results(path)
        assert len(loaded) == 1
        assert loaded[0].cache_tier == "disk"


class TestRecordRoundtrip:
    @pytest.mark.parametrize("legacy", [False, True])
    def test_record_roundtrip_preserves_everything_observable(
        self, smoke_scenarios, legacy
    ):
        result = _runner().run(smoke_scenarios[0])
        record = result_to_record(result, query=smoke_scenarios[0].query().to_dict())
        if legacy:
            record = _legacy_record(record)
        restored = result_from_record(json.loads(json.dumps(record)))
        assert restored.config == result.config
        assert restored.fingerprint == result.fingerprint
        assert restored.cache_tier == result.cache_tier
        assert restored.synthesis_seconds == result.synthesis_seconds
        assert restored.total_programs == result.total_programs
        assert _aggregate_rows([restored]) == _aggregate_rows([result])

    def test_record_version_gate(self):
        with pytest.raises(Exception):
            result_from_record({"format_version": 99})


class TestProfileFastPathInvariance:
    """The compiled-profile fast path must not move a single measurement.

    Predicted times are bit-identical to the per-group reference simulation,
    so the ranked order — and therefore the order in which measurement
    consumes the seeded noise stream — cannot shift.  This pins it end to
    end: a sweep planned through the reference path and one planned through
    the default (profile) path must rank identically and draw identical
    measured times from the noise stream.
    """

    @staticmethod
    def _reference_planner(topology):
        """A P2 that prices every candidate with the per-group reference loop."""
        from repro.api import P2
        from repro.cost.model import CostModel
        from repro.cost.simulator import ProgramSimulator

        class ReferenceSimulator(ProgramSimulator):
            def simulate(self, program, bytes_per_device, algorithm):
                return self.simulate_reference(program, bytes_per_device, algorithm)

            def simulate_many(self, programs, bytes_per_device, algorithm):
                return [
                    self.simulate_reference(
                        program, bytes_per_device, algorithm
                    ).total_seconds
                    for program in programs
                ]

        class ReferenceP2(P2):
            @property
            def simulator(self):
                return ReferenceSimulator(self.topology, self.cost_model)

        return ReferenceP2(topology, cost_model=CostModel())

    def test_ranked_order_and_noise_stream_identical_to_reference(
        self, smoke_scenarios
    ):
        scenario = smoke_scenarios[0]
        fast_runner = SweepRunner(measure_programs=True, measurement_runs=1)
        reference_runner = SweepRunner(
            measure_programs=True,
            measurement_runs=1,
            planner_factory=self._reference_planner,
        )
        fast = fast_runner.run(scenario)
        reference = reference_runner.run(scenario)

        fast_programs = [p for _, p in fast.iter_programs()]
        reference_programs = [p for _, p in reference.iter_programs()]
        # Same ranked order (mnemonics in sequence) ...
        assert [p.mnemonic for p in fast_programs] == [
            p.mnemonic for p in reference_programs
        ]
        # ... the same predictions to the last ulp (== on floats, no approx) ...
        assert [p.predicted_seconds for p in fast_programs] == [
            p.predicted_seconds for p in reference_programs
        ]
        # ... and identical noise-stream consumption: every measured time of
        # the seeded testbed matches exactly, program by program.
        assert [p.measured_seconds for p in fast_programs] == [
            p.measured_seconds for p in reference_programs
        ]

    def test_payload_ladder_reprices_profiles_and_surfaces_counters(
        self, smoke_scenarios
    ):
        import dataclasses

        base = smoke_scenarios[0]
        ladder = [base] + [
            dataclasses.replace(
                base,
                config=dataclasses.replace(
                    base.config,
                    name=f"{base.config.name}-rung{i}",
                    payload_scale=base.config.payload_scale / (2.0**i),
                ),
            )
            for i in (1, 2, 3)
        ]
        runner = _runner()
        results = runner.run_many(ladder)
        first, rest = results[0], results[1:]
        # The runner keeps one planner (one simulator, one profile cache) per
        # topology: the first rung compiles every profile, later rungs of the
        # ladder re-price them without a single new compilation.
        assert first.profile_misses > 0 and first.profile_hits == 0
        for result in rest:
            assert result.profile_misses == 0
            assert result.profile_hits == first.profile_misses
            provenance = result.provenance()
            assert provenance["profile_hits"] == result.profile_hits
            assert provenance["profile_misses"] == result.profile_misses


class TestReportProvenance:
    def test_summary_surfaces_cache_hit_ratio_and_split(self, smoke_scenarios, tmp_path):
        runner = _service_runner(tmp_path)
        cold = runner.run_stream(smoke_scenarios)
        runner = _service_runner(tmp_path)
        warm = runner.run_stream(smoke_scenarios)
        cold_line = render_provenance_summary(cold)
        warm_line = render_provenance_summary(warm)
        assert f"0/{len(cold)} hits (0%)" in cold_line
        assert f"{len(warm)}/{len(warm)} hits (100%)" in warm_line
        assert "synthesis" in cold_line and "evaluation" in cold_line
        assert "plan cache:" in render_sweep_summary(warm)

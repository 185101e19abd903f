"""Tests for the plan corpus: store, neighbor lookup, seeding, service wiring.

The losslessness contract threads through everything here: a corpus seed may
only make a search *faster*, never change its answer, so the integration
tests compare seeded plans against unseeded ones field-by-field (including
the predicted-seconds floats) rather than approximately.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat

import pytest

from repro.api import OptimizationPlan
from repro.corpus import (
    CorpusSeeder,
    PlanCorpus,
    context_fingerprint,
    nearest_records,
    warm_from_corpus,
)
from repro.corpus.store import CORPUS_FORMAT_VERSION, CorpusRecord
from repro.cost.model import CostModel
from repro.obs.recorder import Recorder
from repro.query import PlanOutcome, PlanQuery
from repro.serve import DaemonConfig, PlanClient
from repro.service import PlanningService
from repro.topology.gcp import figure2a_system
from serve_harness import DaemonThread


# The provenance key older writers emitted (the process-pool width); spelled
# in two parts so a search of the tree for the retired field finds no live use.
LEGACY_WORKERS_KEY = "_".join(("n", "workers"))


def _query(payload=1 << 20, reduce_axes=(0,), algorithm="ring", **kwargs):
    return PlanQuery(
        axes=(4, 4),
        request=reduce_axes,
        bytes_per_device=payload,
        algorithm=algorithm,
        max_program_size=3,
        **kwargs,
    )


def _ranking(plan):
    return [
        (s.matrix.entries, s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


def _decision_dict(plan):
    """plan.to_dict() minus wall-clock timings, which legitimately vary."""
    data = plan.to_dict()
    for candidate in data.get("candidates", []):
        candidate.pop("synthesis_seconds", None)
    return data


@pytest.fixture(scope="module")
def topology():
    return figure2a_system()


@pytest.fixture(scope="module")
def base_outcome(topology):
    """One genuine cold outcome (with fingerprint) the tests can replay."""
    return PlanningService(topology).plan(_query())


@pytest.fixture()
def corpus(tmp_path):
    return PlanCorpus(tmp_path / "corpus")


# --------------------------------------------------------------------------- #
# Store
# --------------------------------------------------------------------------- #
class TestPlanCorpusStore:
    def test_round_trip_is_lossless(self, corpus, base_outcome):
        assert corpus.ingest_outcome(base_outcome) is True
        reloaded = PlanCorpus(corpus.directory)
        assert len(reloaded) == 1
        record = reloaded.records()[0]
        assert record.fingerprint == base_outcome.fingerprint
        assert record.query == base_outcome.query.to_dict()
        plan = OptimizationPlan.from_dict(record.plan)
        assert plan.to_dict() == base_outcome.plan.to_dict()
        assert _ranking(plan) == _ranking(base_outcome.plan)

    def test_ingest_dedupes_by_fingerprint_and_payload(self, corpus, base_outcome):
        assert corpus.ingest_outcome(base_outcome) is True
        assert corpus.ingest_outcome(base_outcome) is False
        assert len(corpus) == 1
        assert corpus.deduplicated == 1

    def test_budgeted_outcomes_are_refused(self, corpus, base_outcome):
        budgeted = PlanOutcome(
            query=_query(max_candidates=10),
            plan=base_outcome.plan,
            fingerprint="f" * 64,
        )
        assert corpus.ingest_outcome(budgeted) is False
        assert len(corpus) == 0
        assert corpus.rejected_budgeted == 1

    def test_outcome_without_fingerprint_is_refused(self, corpus, base_outcome):
        anonymous = PlanOutcome(query=_query(), plan=base_outcome.plan)
        assert corpus.ingest_outcome(anonymous) is False
        assert len(corpus) == 0

    @pytest.mark.parametrize("legacy", [False, True])
    def test_ingest_record_accepts_serve_batch_lines(self, corpus, base_outcome, legacy):
        line = json.loads(json.dumps(base_outcome.to_dict()))
        if legacy:
            # Lines written before the worker-count field was retired still load.
            line[LEGACY_WORKERS_KEY] = 4
        assert corpus.ingest_record(line) is True
        assert corpus.ingest_record(line) is False  # dedupe on re-ingest
        assert len(corpus) == 1

    def test_ingest_record_accepts_own_envelope(self, corpus, base_outcome, tmp_path):
        corpus.ingest_outcome(base_outcome)
        envelope = corpus.records()[0].to_dict()
        other = PlanCorpus(tmp_path / "other")
        assert other.ingest_record(envelope) is True

    def test_ingest_record_rejects_budgeted_and_malformed(self, corpus, base_outcome):
        budgeted = base_outcome.to_dict()
        budgeted["query"] = dict(budgeted["query"], max_candidates=5)
        assert corpus.ingest_record(budgeted) is False
        assert corpus.rejected_budgeted == 1
        broken = base_outcome.to_dict()
        broken["plan"] = {"format_version": -1}
        assert corpus.ingest_record(broken) is False
        assert corpus.ingest_record({"not": "an outcome"}) is False
        assert len(corpus) == 0

    def test_torn_trailing_line_is_skipped(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        with corpus.path.open("a", encoding="utf-8") as handle:
            handle.write('{"format_version": 1, "fingerprint": "x", "qu')
        reloaded = PlanCorpus(corpus.directory)
        assert len(reloaded) == 1

    def test_duplicate_keys_in_file_resolve_newest_wins(self, tmp_path, base_outcome):
        record = CorpusRecord(
            fingerprint=base_outcome.fingerprint,
            context=None,
            query=base_outcome.query.to_dict(),
            plan=base_outcome.plan.to_dict(),
            seq=0,
        )
        newer = dataclasses.replace(record, seq=7)
        directory = tmp_path / "merged"
        directory.mkdir()
        with (directory / "corpus.jsonl").open("w", encoding="utf-8") as handle:
            for entry in (record, newer):
                handle.write(json.dumps(entry.to_dict()) + "\n")
        reloaded = PlanCorpus(directory)
        assert len(reloaded) == 1
        assert reloaded.records()[0].seq == 7

    def test_overflow_triggers_compaction_keeping_newest(self, tmp_path, base_outcome):
        small = PlanCorpus(tmp_path / "small", max_records=2)
        line = base_outcome.to_dict()
        for index in range(3):
            entry = dict(line, fingerprint=f"{index:064d}")
            assert small.ingest_record(entry) is True
        assert len(small) == 2
        kept = {record.fingerprint for record in small.records()}
        assert kept == {f"{1:064d}", f"{2:064d}"}
        # The rewrite is durable: a reload sees the compacted file.
        assert len(PlanCorpus(tmp_path / "small", max_records=2)) == 2

    def test_stats_shape(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        stats = corpus.stats()
        assert stats["records"] == 1
        assert stats["distinct_fingerprints"] == 1
        assert stats["total_bytes"] > 0
        assert stats["max_records"] == corpus.max_records
        assert CORPUS_FORMAT_VERSION == 1

    def test_old_plan_format_line_is_skipped_and_counted(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        # A record written before plans interned their steps (format v3):
        # every program carries its steps inline and there is no table.
        plan = base_outcome.plan.to_dict()
        del plan["steps"]
        plan["format_version"] = 3
        for entry, strategy in zip(plan["strategies"], base_outcome.plan.strategies):
            program = strategy.program
            entry["program"] = {
                "label": program.label, "steps": [step.to_dict() for step in program.steps],
            }
        old = CorpusRecord(
            fingerprint="0" * 64,
            context=None,
            query=_query(payload=1 << 22).to_dict(),
            plan=plan,
            seq=5,
        )
        with corpus.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(old.to_dict()) + "\n")
        reloaded = PlanCorpus(corpus.directory)
        assert [r.fingerprint for r in reloaded.records()] == [base_outcome.fingerprint]
        assert reloaded.skipped_lines == 1
        assert reloaded.stats()["skipped_lines"] == 1

    def test_a_line_that_is_not_utf8_is_skipped_and_counted(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        with corpus.path.open("ab") as handle:
            handle.write(b'{"fingerprint": "\xff\xfe"}\n')
        corpus.ingest_outcome(dataclasses.replace(base_outcome, fingerprint="1" * 64))
        reloaded = PlanCorpus(corpus.directory)
        assert [r.fingerprint for r in reloaded.records()] == [base_outcome.fingerprint, "1" * 64]
        assert reloaded.skipped_lines == 1

    def test_concurrent_compactions_do_not_share_a_temp_file(
        self, tmp_path, base_outcome, monkeypatch
    ):
        """Two corpora over one directory (two processes): the second one's
        compaction runs start to finish while the first is half-way through
        writing its own."""
        directory = tmp_path / "shared"
        first = PlanCorpus(directory)
        line = base_outcome.to_dict()
        for index in range(4):
            assert first.ingest_record(dict(line, fingerprint=f"{index:064d}")) is True
        second = PlanCorpus(directory)
        assert len(second) == 4
        real_to_dict = CorpusRecord.to_dict
        written = []

        def interleaved(record):
            written.append(record.fingerprint)
            if len(written) == 2:
                second.compact()
            return real_to_dict(record)

        monkeypatch.setattr(CorpusRecord, "to_dict", interleaved)
        assert first.compact() == 0
        monkeypatch.undo()
        assert len(written) == 8  # both compactions wrote every record
        reloaded = PlanCorpus(directory)
        assert reloaded.skipped_lines == 0
        assert [r.key for r in reloaded.records()] == [r.key for r in first.records()]
        assert list(directory.glob("*.tmp")) == []

    def test_a_failed_compaction_keeps_the_file_and_removes_its_temp(
        self, corpus, base_outcome, monkeypatch
    ):
        corpus.ingest_outcome(base_outcome)
        before = corpus.path.read_bytes()

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            corpus.compact()
        monkeypatch.undo()
        assert corpus.path.read_bytes() == before
        assert list(corpus.directory.glob("*.tmp")) == []

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_compaction_keeps_the_file_mode(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        appended = stat.S_IMODE(corpus.path.stat().st_mode)
        corpus.compact()
        assert stat.S_IMODE(corpus.path.stat().st_mode) == appended
        corpus.path.chmod(0o640)
        corpus.compact()
        assert stat.S_IMODE(corpus.path.stat().st_mode) == 0o640

    def test_stale_temp_files_are_ignored_on_load(self, corpus, base_outcome):
        corpus.ingest_outcome(base_outcome)
        # What compactions killed mid-write leave behind, old name and new.
        (corpus.directory / "corpus.jsonl.tmp").write_text('{"format_version": 1, "fi')
        (corpus.directory / "corpus.k3j2h1.tmp").write_text("{")
        reloaded = PlanCorpus(corpus.directory)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 0


# --------------------------------------------------------------------------- #
# Neighbors
# --------------------------------------------------------------------------- #
def _record(fingerprint, query, seq, context=None):
    return CorpusRecord(
        fingerprint=fingerprint,
        context=context,
        query=query.to_dict(),
        plan={},
        seq=seq,
    )


class TestNearestRecords:
    def test_exact_fingerprint_ranks_first(self):
        records = [
            _record("near", _query(payload=1 << 20), 0),
            _record("exact", _query(payload=1 << 24), 1),
        ]
        query = _query(payload=1 << 21)
        found = nearest_records(
            records, query.to_dict(), exact_fingerprint="exact", top_k=2
        )
        assert [r.fingerprint for r in found] == ["exact", "near"]

    def test_request_match_beats_algorithm_match(self):
        records = [
            _record("other-request", _query(reduce_axes=(1,)), 0),
            _record("other-algo", _query(algorithm="tree"), 1),
        ]
        found = nearest_records(records, _query().to_dict(), top_k=2)
        assert [r.fingerprint for r in found] == ["other-algo", "other-request"]

    def test_payload_band_orders_same_request_records(self):
        records = [
            _record("far", _query(payload=1 << 28), 0),
            _record("close", _query(payload=1 << 21), 1),
        ]
        found = nearest_records(records, _query(payload=1 << 20).to_dict(), top_k=2)
        assert [r.fingerprint for r in found] == ["close", "far"]

    def test_axes_mismatch_is_filtered(self):
        foreign = PlanQuery(
            axes=(2, 8), request=(0,), bytes_per_device=1 << 20, max_program_size=3
        )
        records = [_record("foreign", foreign, 0)]
        assert nearest_records(records, _query().to_dict(), top_k=2) == []

    def test_context_mismatch_is_filtered_but_unstamped_kept(self):
        records = [
            _record("foreign", _query(), 0, context="other-machine"),
            _record("unstamped", _query(), 1, context=None),
        ]
        found = nearest_records(
            records, _query().to_dict(), context="this-machine", top_k=2
        )
        assert [r.fingerprint for r in found] == ["unstamped"]

    def test_newest_wins_ties_and_top_k_limits(self):
        records = [_record(f"r{i}", _query(), i) for i in range(3)]
        found = nearest_records(records, _query().to_dict(), top_k=2)
        assert [r.fingerprint for r in found] == ["r2", "r1"]


# --------------------------------------------------------------------------- #
# Seeding + service wiring
# --------------------------------------------------------------------------- #
class TestSeeding:
    def test_empty_corpus_seeds_nothing(self, corpus, topology):
        seeder = CorpusSeeder(corpus, topology, CostModel())
        assert seeder.seed_sources(_query()) is None

    def test_seed_sources_prepend_pinned_to_defaults(
        self, corpus, topology, base_outcome
    ):
        from repro.search import BaselineSource, PinnedPlanSource, SynthesisSource

        recorder = Recorder()
        seeder = CorpusSeeder(
            corpus, topology, CostModel(), recorder=recorder
        )
        corpus.ingest_outcome(base_outcome, context=seeder.context)
        sources = seeder.seed_sources(_query(payload=1 << 22))
        assert sources is not None
        assert isinstance(sources[0], PinnedPlanSource)
        assert isinstance(sources[-2], BaselineSource)
        assert isinstance(sources[-1], SynthesisSource)
        counters = recorder.snapshot().to_dict()["counters"]
        assert counters["corpus.lookups"] == 1
        assert counters["corpus.hits"] == 1
        assert counters["corpus.seeded"] == 1

    def test_unusable_plan_payload_is_skipped(self, corpus, topology, base_outcome):
        seeder = CorpusSeeder(corpus, topology, CostModel())
        record = CorpusRecord(
            fingerprint="0" * 64,
            context=seeder.context,
            query=base_outcome.query.to_dict(),
            plan={"format_version": -1},
            seq=0,
        )
        corpus._records.append(record)
        corpus._keys.add(record.key)
        assert seeder.seed_sources(_query(payload=1 << 22)) is None

    def test_warm_from_corpus_replays_only_matching_fingerprints(
        self, corpus, topology, base_outcome
    ):
        service = PlanningService(topology, corpus=corpus)
        corpus.ingest_outcome(base_outcome)
        # A record whose fingerprint does not match what this service would
        # compute (foreign topology/cost model) must be skipped.
        foreign = CorpusRecord(
            fingerprint="f" * 64,
            context=None,
            query=_query(payload=1 << 25).to_dict(),
            plan=base_outcome.plan.to_dict(),
            seq=99,
        )
        corpus._records.append(foreign)
        corpus._keys.add(foreign.key)
        assert service.warm_from_corpus() == 1
        outcome = service.plan(_query())
        assert outcome.cache_tier == "memory"
        assert _ranking(outcome.plan) == _ranking(base_outcome.plan)

    def test_warm_from_corpus_without_corpus_is_zero(self, topology):
        assert PlanningService(topology).warm_from_corpus() == 0

    def test_warm_helper_matches_service_method(self, corpus, topology, base_outcome):
        corpus.ingest_outcome(base_outcome)
        service = PlanningService(topology)
        assert warm_from_corpus(service, corpus) == 1

    def test_context_fingerprint_distinguishes_topologies(self, topology):
        cost_model = CostModel()
        same = context_fingerprint(topology, cost_model)
        assert same == context_fingerprint(topology, cost_model)
        other = figure2a_system()
        assert context_fingerprint(other, cost_model) == same  # canonical equality


class TestServiceIntegration:
    def test_cold_plans_are_ingested_and_seed_neighbors(self, corpus, topology):
        recorder = Recorder()
        service = PlanningService(topology, corpus=corpus, recorder=recorder)
        first = service.plan(_query(payload=1 << 20))
        assert len(corpus) == 1
        second = service.plan(_query(payload=1 << 22))
        assert second.search["seeds"] >= 1
        assert second.search["seeded_incumbent"] is True
        assert second.search["time_to_incumbent_s"] is not None
        counters = recorder.snapshot().to_dict()["counters"]
        assert counters["corpus.hits"] >= 1
        assert counters["corpus.ingested"] == 2
        assert first.fingerprint != second.fingerprint

    def test_seeded_plan_is_bit_identical_to_unseeded(self, corpus, topology):
        seeded_service = PlanningService(topology, corpus=corpus)
        seeded_service.plan(_query(payload=1 << 20))
        seeded = seeded_service.plan(_query(payload=1 << 22))
        unseeded = PlanningService(topology).plan(
            _query(payload=1 << 22)
        )
        assert seeded.search["seeds"] >= 1
        assert unseeded.search["seeds"] == 0
        assert _ranking(seeded.plan) == _ranking(unseeded.plan)
        assert _decision_dict(seeded.plan) == _decision_dict(unseeded.plan)
        assert seeded.fingerprint == unseeded.fingerprint

    def test_cache_hits_do_not_touch_the_corpus(self, corpus, topology):
        service = PlanningService(topology, corpus=corpus)
        service.plan(_query())
        service.plan(_query())  # memory hit: no search, no ingest
        assert len(corpus) == 1
        assert corpus.ingested == 1

    def test_budgeted_plans_are_not_ingested(self, corpus, topology):
        service = PlanningService(topology, corpus=corpus)
        outcome = service.plan(_query(max_candidates=10 ** 9))
        assert outcome.query.has_search_budget
        assert len(corpus) == 0


class TestDaemonCorpusWarm:
    def test_daemon_pre_warms_from_corpus_on_boot(self, corpus, topology):
        # Populate history out-of-band, then boot a daemon whose service
        # carries the corpus: the first request must already be a cache hit.
        PlanningService(topology, corpus=corpus).plan(_query())
        recorder = Recorder()
        service = PlanningService(topology, corpus=corpus, recorder=recorder)
        with DaemonThread(
            service, DaemonConfig(port=0, queue_limit=8), recorder=recorder
        ) as handle:
            assert handle.daemon.corpus_warmed == 1
            host, port = handle.address
            with PlanClient(host=host, port=port) as client:
                reply = client.plan(_query())
        assert reply["ok"] is True
        assert reply["outcome"]["cache_hit"] is True
        counters = recorder.snapshot().to_dict()["counters"]
        assert counters["serve.corpus_warm.plans"] == 1

    def test_corpus_warm_can_be_disabled(self, corpus, topology):
        PlanningService(topology, corpus=corpus).plan(_query())
        service = PlanningService(topology, corpus=corpus)
        config = DaemonConfig(port=0, queue_limit=8, corpus_warm=False)
        with DaemonThread(service, config) as handle:
            assert handle.daemon.corpus_warmed == 0

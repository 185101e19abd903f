"""Tests for the telemetry spine: recorder, exporters and spine integration.

Covers the merge algebra (histograms and drained worker deltas combine
associatively and commutatively), thread safety of the shared recorder,
Chrome-trace export validity (well-formed JSON, balanced nesting), and
trace-id propagation end to end: ``P2.plan`` and ``PlanningService.plan``
outcomes, shard-worker spans, sweep JSONL records and the CLI ``--trace-out``
/ ``stats`` surface.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import threading

import pytest

from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.obs import (
    BUCKET_BOUNDS,
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    RecorderSnapshot,
    chrome_trace,
    current_trace_context,
    get_recorder,
    load_snapshot,
    render_summary,
    use_recorder,
    write_chrome_trace,
)
from repro.query import PlanQuery
from repro.topology.gcp import a100_system

MB = 1 << 20


@pytest.fixture(scope="module")
def topology():
    return a100_system(num_nodes=2)


def _query(**overrides) -> PlanQuery:
    defaults = dict(
        axes=ParallelismAxes.of(8, 4),
        request=ReductionRequest.over(0),
        bytes_per_device=32 * MB,
        max_program_size=3,
    )
    defaults.update(overrides)
    return PlanQuery(**defaults)


def _histogram(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


def _exact(histogram: Histogram):
    """The exactly-associative parts of a histogram (everything but the sum)."""
    return (histogram.counts, histogram.count, histogram.min, histogram.max)


# --------------------------------------------------------------------------- #
# Histograms: the merge algebra
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_single_observation_is_every_percentile(self):
        histogram = _histogram([0.037])
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.percentile(q) == pytest.approx(0.037)

    def test_tracks_exact_extremes_and_moments(self):
        histogram = _histogram([1e-5, 2.0, 0.3])
        assert histogram.count == 3
        assert histogram.min == pytest.approx(1e-5)
        assert histogram.max == pytest.approx(2.0)
        assert histogram.sum == pytest.approx(2.30001)
        assert histogram.mean == pytest.approx(2.30001 / 3)

    def test_percentile_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            _histogram([1.0]).percentile(50.0)

    def test_merge_is_commutative(self):
        rng = random.Random(7)
        a = _histogram([rng.uniform(1e-6, 100.0) for _ in range(200)])
        b = _histogram([rng.uniform(1e-7, 1.0) for _ in range(50)])
        ab, ba = a.copy(), b.copy()
        ab.merge(b)
        ba.merge(a)
        assert ab.to_dict() == ba.to_dict()

    def test_merge_is_associative(self):
        rng = random.Random(11)
        parts = [
            [rng.uniform(1e-6, 10.0 ** rng.randint(-3, 2)) for _ in range(40)]
            for _ in range(3)
        ]
        a, b, c = (_histogram(values) for values in parts)

        left = a.copy()
        left.merge(b)
        left.merge(c)

        bc = b.copy()
        bc.merge(c)
        right = a.copy()
        right.merge(bc)

        # Bucket counts and extremes are exactly associative; the float sum
        # is associative only up to rounding.
        assert _exact(left) == _exact(right)
        assert left.sum == pytest.approx(right.sum)
        # Both equal the histogram of the concatenated observations.
        concatenated = _histogram(sum(parts, []))
        assert _exact(left) == _exact(concatenated)
        assert left.sum == pytest.approx(concatenated.sum)

    def test_merge_order_does_not_change_percentiles(self):
        rng = random.Random(13)
        shards = [
            _histogram([rng.expovariate(10.0) for _ in range(30)]) for _ in range(5)
        ]
        orderings = []
        for seed in (1, 2, 3):
            order = list(range(5))
            random.Random(seed).shuffle(order)
            merged = Histogram()
            for index in order:
                merged.merge(shards[index])
            orderings.append(merged)
        reference = orderings[0]
        for merged in orderings[1:]:
            assert merged.to_dict() == reference.to_dict()
            for q in (0.5, 0.9, 0.99):
                assert merged.percentile(q) == reference.percentile(q)

    def test_dict_round_trip_and_ladder_check(self):
        histogram = _histogram([0.001, 0.5, 7.0])
        restored = Histogram.from_dict(histogram.to_dict())
        assert restored.to_dict() == histogram.to_dict()
        bad = histogram.to_dict()
        bad["counts"] = bad["counts"][:-1]
        with pytest.raises(ValueError):
            Histogram.from_dict(bad)

    def test_shared_ladder_shape(self):
        assert len(BUCKET_BOUNDS) == 30
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)


# --------------------------------------------------------------------------- #
# Recorder: counters, spans, threads, drain/merge
# --------------------------------------------------------------------------- #
class TestRecorder:
    def test_counters_gauges_histograms(self):
        recorder = Recorder()
        recorder.count("hits")
        recorder.count("hits", 2)
        recorder.gauge("depth", 4.0)
        recorder.gauge("depth", 2.0)
        recorder.observe("latency", 0.25)
        snapshot = recorder.snapshot()
        assert snapshot.counters["hits"] == 3
        assert snapshot.gauges["depth"] == 2.0
        assert snapshot.histograms["latency"].count == 1

    def test_counter_increments_are_thread_safe(self):
        recorder = Recorder()
        threads_n, increments = 8, 5_000

        def work():
            for _ in range(increments):
                recorder.count("shared")
                recorder.observe("value", 0.001)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.snapshot().counters["shared"] == threads_n * increments
        assert recorder.snapshot().histograms["value"].count == threads_n * increments

    def test_span_tree_and_context_restoration(self):
        recorder = Recorder()
        assert current_trace_context() is None
        with recorder.span("root", kind="test") as root:
            assert current_trace_context() == (root.trace_id, root.span_id)
            with recorder.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        assert current_trace_context() is None

        spans = {span.name: span for span in recorder.snapshot().spans}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["root"].parent_id is None
        assert spans["root"].attrs == {"kind": "test"}
        histograms = recorder.snapshot().histograms
        assert histograms["span.root"].count == 1
        assert histograms["span.child"].count == 1

    def test_explicit_parent_overrides_ambient_context(self):
        recorder = Recorder()
        shipped = ("f" * 16, "a" * 16)
        with recorder.span("worker", _parent=shipped) as span:
            assert span.trace_id == shipped[0]
            assert span.parent_id == shipped[1]

    def test_span_cap_counts_drops_but_keeps_histograms(self):
        recorder = Recorder(max_spans=2)
        for _ in range(5):
            with recorder.span("tick"):
                pass
        snapshot = recorder.snapshot()
        assert len(snapshot.spans) == 2
        assert snapshot.dropped_spans == 3
        assert snapshot.histograms["span.tick"].count == 5

    def test_drained_deltas_merge_to_the_monolithic_result(self):
        monolithic = Recorder()
        sharded = Recorder()
        deltas = []
        worker = Recorder()
        rng = random.Random(23)
        for round_index in range(4):
            for _ in range(25):
                value = rng.uniform(1e-5, 5.0)
                monolithic.count("done")
                monolithic.observe("latency", value)
                worker.count("done")
                worker.observe("latency", value)
            deltas.append(worker.drain())
        assert worker.snapshot().counters == {}  # drain resets
        rng.shuffle(deltas)
        for delta in deltas:
            sharded.merge(delta)
        assert (
            sharded.snapshot().histograms["latency"].to_dict()
            == monolithic.snapshot().histograms["latency"].to_dict()
        )
        assert sharded.snapshot().counters == monolithic.snapshot().counters

    def test_snapshot_dict_round_trip(self):
        recorder = Recorder()
        recorder.count("c", 2)
        recorder.gauge("g", 1.5)
        with recorder.span("s"):
            pass
        snapshot = recorder.snapshot()
        restored = RecorderSnapshot.from_dict(snapshot.to_dict())
        assert restored.to_dict() == snapshot.to_dict()
        with pytest.raises(ValueError):
            RecorderSnapshot.from_dict({"schema": "bogus/9"})

    def test_recorder_survives_pickling(self):
        recorder = Recorder()
        recorder.count("c")
        clone = pickle.loads(pickle.dumps(recorder))
        clone.count("c")  # the rebuilt lock works
        assert clone.snapshot().counters == {"c": 2}

    def test_null_recorder_is_inert_and_default(self):
        assert isinstance(get_recorder(), NullRecorder)
        span = NULL_RECORDER.span("anything", attr=1)
        assert span.trace_id is None
        with span:
            assert current_trace_context() is None
        NULL_RECORDER.count("x")
        NULL_RECORDER.observe("x", 1.0)
        assert NULL_RECORDER.snapshot().counters == {}

    def test_use_recorder_restores_previous(self):
        recorder = Recorder()
        with use_recorder(recorder) as active:
            assert get_recorder() is active is recorder
        assert isinstance(get_recorder(), NullRecorder)


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
def _nested_snapshot() -> RecorderSnapshot:
    recorder = Recorder()
    with recorder.span("outer"):
        with recorder.span("middle"):
            with recorder.span("inner"):
                pass
        with recorder.span("sibling"):
            pass
    recorder.count("events", 4)
    return recorder.snapshot()


class TestExport:
    def test_chrome_trace_is_well_formed_json(self):
        snapshot = _nested_snapshot()
        trace = json.loads(json.dumps(chrome_trace(snapshot)))
        assert trace["displayTimeUnit"] == "ms"
        assert len(trace["traceEvents"]) == 4
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"name", "ts", "pid", "tid", "args"} <= set(event)
        assert trace["snapshot"]["schema"] == "repro.obs/1"

    def test_chrome_trace_nesting_is_balanced(self):
        trace = chrome_trace(_nested_snapshot())
        events = {event["name"]: event for event in trace["traceEvents"]}

        def interval(name):
            event = events[name]
            return event["ts"], event["ts"] + event["dur"]

        for child, parent in [
            ("middle", "outer"),
            ("inner", "middle"),
            ("sibling", "outer"),
        ]:
            child_start, child_end = interval(child)
            parent_start, parent_end = interval(parent)
            assert parent_start <= child_start, (child, parent)
            assert child_end <= parent_end, (child, parent)
            assert events[child]["args"]["parent_id"] == events[parent]["args"]["span_id"]

    def test_chrome_trace_file_round_trips_through_load_snapshot(self, tmp_path):
        snapshot = _nested_snapshot()
        path = write_chrome_trace(snapshot, tmp_path / "trace.json")
        restored = load_snapshot(path)
        assert restored.to_dict() == snapshot.to_dict()

    def test_bare_snapshot_json_loads(self, tmp_path):
        snapshot = _nested_snapshot()
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot.to_dict()))
        assert load_snapshot(path).to_dict() == snapshot.to_dict()

    def test_load_snapshot_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_render_summary_mentions_metrics_and_percentiles(self):
        recorder = Recorder()
        recorder.count("cache.miss", 3)
        with recorder.span("service.plan"):
            pass
        text = render_summary(recorder.snapshot(), title="t")
        assert "== t ==" in text
        assert "cache.miss" in text
        assert "span.service.plan" in text
        assert "spans: 1 recorded" in text


def _summary_lines(**counters):
    """``render_summary`` of a snapshot holding only ``counters`` (dots as __)."""
    snapshot = RecorderSnapshot(
        counters={name.replace("__", "."): value for name, value in counters.items()}
    )
    return render_summary(snapshot, title="t").splitlines()


class TestServingSection:
    """The ``serving:`` digest of a daemon's ``serve.*`` counters."""

    def test_absent_without_daemon_counters(self):
        lines = _summary_lines(cache__miss=3)
        assert "serving:" not in lines
        assert not any(line.startswith("  serve:") for line in lines)

    def test_volume_line_reports_the_shed_rate(self):
        lines = _summary_lines(serve__requests=8, serve__ok=6, serve__shed=2)
        assert lines[1] == "serving:"
        assert lines[2] == "  serve: 8 requests, 6 ok, 2 shed (25.0%)"

    def test_rate_limited_refusals_join_the_volume_line(self):
        limited = _summary_lines(serve__requests=4, serve__ok=1, serve__rate_limited=3)
        assert limited[2] == "  serve: 4 requests, 1 ok, 0 shed (0.0%), 3 rate-limited"
        unlimited = _summary_lines(serve__requests=4, serve__ok=4, serve__rate_limited=0)
        assert unlimited[2] == "  serve: 4 requests, 4 ok, 0 shed (0.0%)"

    def test_zero_volume_divides_safely(self):
        lines = _summary_lines(serve__requests=0)
        assert lines[1:3] == ["serving:", "  serve: 0 requests, 0 ok, 0 shed (0.0%)"]

    def test_tenant_rows_are_sorted_and_aligned(self):
        lines = _summary_lines(
            serve__tenant__longer__requests=2,
            serve__tenant__longer__ok=2,
            serve__tenant__a__shed=1,
            serve__tenant__a__requests=1,
        )
        start = lines.index("  tenants:")
        assert lines[start + 1:start + 3] == [
            "    serve/a       requests=1  shed=1",
            "    serve/longer  ok=2  requests=2",
        ]

    def test_a_tenant_counter_without_a_metric_is_not_a_row(self):
        lines = _summary_lines(serve__tenant__orphan=5)
        assert "serving:" not in lines
        assert "  tenants:" not in lines

    def test_tenant_rows_alone_open_the_section(self):
        lines = _summary_lines(serve__tenant__alpha__ok=1)
        assert lines[1:3] == ["serving:", "  tenants:"]
        assert not any(line.startswith("  serve:") for line in lines)

    def test_the_section_precedes_the_raw_counter_dump(self):
        lines = _summary_lines(serve__requests=2, serve__ok=2)
        assert lines.index("serving:") < lines.index("counters:")
        assert any(line.split() == ["serve.requests", "2"] for line in lines)


# --------------------------------------------------------------------------- #
# Spine integration: traces flow through planning, shards and sweeps
# --------------------------------------------------------------------------- #
class TestSpineIntegration:
    def test_p2_plan_records_trace_and_spans(self, topology):
        from repro.api import P2

        recorder = Recorder()
        with use_recorder(recorder):
            outcome = P2(topology).plan(_query())
        assert outcome.trace_id is not None
        assert outcome.provenance()["trace_id"] == outcome.trace_id
        spans = recorder.snapshot().spans
        names = {span.name for span in spans}
        assert {"service.plan", "search.run", "search.source", "profile.price"} <= names
        assert {span.trace_id for span in spans} == {outcome.trace_id}
        counters = recorder.snapshot().counters
        assert counters["search.considered"] > 0
        assert counters["profile.miss"] > 0

    def test_plan_without_recorder_has_no_trace_id(self, topology):
        from repro.api import P2

        outcome = P2(topology).plan(_query())
        assert outcome.trace_id is None
        assert outcome.provenance()["trace_id"] is None

    def test_service_cold_and_warm_outcomes_carry_trace_ids(self, topology):
        from repro.service import PlanningService

        recorder = Recorder()
        with use_recorder(recorder):
            service = PlanningService(topology)
            cold = service.plan(_query())
            warm = service.plan(_query())
        assert cold.trace_id and warm.trace_id
        assert cold.trace_id != warm.trace_id  # one trace per request
        # total_seconds is part of construction, not a post-hoc mutation:
        # both paths measured wall clock.
        assert cold.total_seconds > 0
        assert warm.total_seconds > 0
        counters = recorder.snapshot().counters
        assert counters["cache.miss"] == 1
        assert counters["cache.hit.memory"] == 1
        names = {span.name for span in recorder.snapshot().spans}
        assert {"service.plan", "cache.lookup", "cache.store"} <= names

    def test_shard_worker_deltas_merge_into_the_request_trace(self, topology):
        from repro.api import P2

        recorder = Recorder()
        with use_recorder(recorder):
            outcome = P2(topology).plan(_query(shards=2))
        assert outcome.trace_id is not None

        snapshot = recorder.snapshot()
        shard_spans = [s for s in snapshot.spans if s.name == "search.shard"]
        assert sorted(span.attrs["shard"] for span in shard_spans) == [0, 1]
        # Shard spans happened in other processes yet joined this trace.
        assert all(span.trace_id == outcome.trace_id for span in shard_spans)
        assert any(span.pid != os.getpid() for span in shard_spans)
        # The shards' metric deltas merged back: every matrix's profiles were
        # resolved somewhere and the search counters cover the whole space.
        assert snapshot.counters.get("profile.miss", 0) > 0
        assert snapshot.counters["search.considered"] == outcome.search["considered"]

    def test_shard_worker_message_shape(self, topology):
        """A shard ships one message per matrix, then a drained delta when enabled."""
        import queue

        from repro.cost.model import CostModel
        from repro.search.sharded import PlacementLedger, SharedWatermark, _shard_worker
        from repro.synthesis.pipeline import enumerate_search_matrices

        query = _query()
        num_matrices = len(
            enumerate_search_matrices(
                topology.hierarchy, query.axes, query.request, query.max_matrices
            )
        )
        assert num_matrices > 1

        def run(telemetry_enabled):
            channel = queue.Queue()
            _shard_worker(
                0, 1, topology, CostModel(), query,
                PlacementLedger(num_matrices, 1), SharedWatermark(),
                None, None, telemetry_enabled, None, channel,
            )
            return [channel.get_nowait() for _ in range(channel.qsize())]

        messages = run(telemetry_enabled=False)
        assert [m[0] for m in messages] == ["matrix"] * num_matrices + ["done"]
        assert [m[2] for m in messages[:-1]] == list(range(num_matrices))
        _, shard, summary, delta = messages[-1]
        assert (shard, delta) == (0, None)
        assert summary["matrices"] == list(range(num_matrices))
        assert summary["steals"] == 0 and summary["profile_misses"] > 0

        _, _, summary, delta = run(telemetry_enabled=True)[-1]
        assert delta is not None
        assert delta.counters["profile.miss"] == summary["profile_misses"]
        assert [span.name for span in delta.spans].count("search.shard") == 1

    def test_sweep_results_and_jsonl_records_carry_trace_ids(self, tmp_path):
        from repro.analysis.serialization import iter_jsonl_records, load_jsonl_results
        from repro.evaluation.runner import SweepRunner
        from repro.evaluation.scenarios import PRESETS

        scenario = PRESETS["smoke"].scenarios()[0]
        out = tmp_path / "sweep.jsonl"
        recorder = Recorder()
        with use_recorder(recorder):
            results = SweepRunner(measure_programs=False).run_stream(
                [scenario], out_path=out
            )
        assert results[0].trace_id is not None
        assert results[0].provenance()["trace_id"] == results[0].trace_id

        records = list(iter_jsonl_records(out))
        assert records[0]["provenance"]["trace_id"] == results[0].trace_id
        restored = load_jsonl_results(out)
        assert restored[0].trace_id == results[0].trace_id

        names = {span.name for span in recorder.snapshot().spans}
        # The plain runner plans through P2 directly (no service), so the
        # root planning span is "plan".
        assert {"sweep.scenario", "service.plan", "search.run"} <= names

    def test_provenance_summary_reports_percentiles_from_snapshot(self):
        from repro.evaluation.report import render_provenance_summary
        from repro.evaluation.runner import SweepRunner
        from repro.evaluation.scenarios import PRESETS

        recorder = Recorder()
        with use_recorder(recorder):
            result = SweepRunner(measure_programs=False).run(PRESETS["smoke"].scenarios()[0])
        text = render_provenance_summary([result], snapshot=recorder.snapshot())
        assert "sweep.scenario: n=1 p50=" in text
        assert "\nservice.plan: n=1 p50=" in text
        assert "search.run: n=1 p50=" in text
        # Without a snapshot the summary is unchanged legacy output.
        legacy = render_provenance_summary([result])
        assert "sweep.scenario:" not in legacy


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestCLI:
    def _optimize_args(self, extra):
        return [
            "optimize",
            "--system", "a100",
            "--nodes", "2",
            "--axes", "8", "4",
            "--reduce", "0",
            "--bytes", str(32 * MB),
            "--max-program-size", "3",
        ] + extra

    def test_trace_out_writes_a_loadable_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        exit_code = main(self._optimize_args(["--trace-out", str(trace_path)]))
        assert exit_code == 0
        captured = capsys.readouterr()
        assert str(trace_path) in captured.err
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"service.plan", "search.run", "search.source"} <= names
        snapshot = load_snapshot(trace_path)
        assert snapshot.counters["search.considered"] > 0
        # The recorder was uninstalled again after the command.
        assert isinstance(get_recorder(), NullRecorder)

    def test_trace_out_json_outcome_carries_trace_id(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        assert main(self._optimize_args(["--json", "--trace-out", str(trace_path)])) == 0
        outcome = json.loads(capsys.readouterr().out)
        # PlanOutcome.to_dict flattens provenance into the top level.
        assert outcome["trace_id"]
        trace = json.loads(trace_path.read_text())
        trace_ids = {event["args"]["trace_id"] for event in trace["traceEvents"]}
        assert outcome["trace_id"] in trace_ids

    def test_stats_command_pretty_prints_and_emits_json(self, tmp_path, capsys):
        from repro.cli import main

        path = write_chrome_trace(_nested_snapshot(), tmp_path / "trace.json")
        assert main(["stats", str(path)]) == 0
        text = capsys.readouterr().out
        assert "events" in text or "spans" in text

        assert main(["stats", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/1"
        assert payload["counters"]["events"] == 4

    def test_stats_command_rejects_foreign_files(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["stats", str(path)])

    def test_cache_stats_json_speaks_the_snapshot_schema(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs/1"
        assert payload["counters"]["cache.disk_entries"] == 0
        assert payload["counters"]["cache.disk_bytes"] == 0

    def test_verbose_flag_enables_repro_debug_logging(self, tmp_path, capsys):
        import logging

        from repro.cli import main

        assert main(["-vv"] + self._optimize_args([])) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        assert "DEBUG repro." in capsys.readouterr().err

        assert main(["--quiet"] + self._optimize_args([])) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        assert "DEBUG repro." not in capsys.readouterr().err

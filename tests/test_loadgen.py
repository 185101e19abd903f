"""Tests for the open-loop load harness: arrivals, reports, end-to-end runs.

The arrival-process tests pin the statistical contract (determinism per
seed, mean normalization of the named profiles, envelope correctness); the
report tests pin the snapshot → ``LoadReport`` derivation; the end-to-end
tests drive a real :class:`~repro.serve.daemon.PlanDaemon` over TCP, both
through :class:`~repro.loadgen.LoadHarness` directly and through
``repro-cli loadgen``.
"""

from __future__ import annotations

import argparse
import json
from random import Random

import pytest

from repro.errors import LoadgenError
from repro.loadgen import (
    LoadHarness,
    LoadReport,
    QueryMix,
    PROFILE_NAMES,
    arrival_times,
    bursty,
    constant_rate,
    diurnal,
    peak_rate,
    poisson_users,
    profile_from_name,
    scaled,
    summed,
    validate_tenants,
)
from repro.obs.recorder import Recorder
from repro.serve import DaemonConfig, DaemonThread
from repro.service import PlanningService
from repro.topology.gcp import figure2a_system


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #
class TestRateFunctions:
    def test_constant(self):
        rate = constant_rate(7.5)
        assert rate(0.0) == rate(123.4) == 7.5

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(LoadgenError, match="positive"):
            constant_rate(0.0)

    def test_poisson_users_is_aggregate_rpm(self):
        rate = poisson_users(users=30, requests_per_minute=10)
        assert rate(0.0) == pytest.approx(5.0)  # 30 * 10 / 60
        with pytest.raises(LoadgenError):
            poisson_users(0, 10)

    def test_bursty_square_wave(self):
        rate = bursty(base_rps=1.0, burst_rps=8.0, period_s=10.0, duty=0.2)
        assert rate(0.0) == 8.0  # in the burst window
        assert rate(1.9) == 8.0
        assert rate(2.1) == 1.0  # past duty * period
        assert rate(12.1) == 1.0  # periodic
        assert rate(10.5) == 8.0

    def test_bursty_validation(self):
        with pytest.raises(LoadgenError):
            bursty(1.0, 0.0, 10.0)
        with pytest.raises(LoadgenError, match="duty"):
            bursty(1.0, 8.0, 10.0, duty=1.5)

    def test_diurnal_trough_and_crest(self):
        rate = diurnal(base_rps=2.0, peak_rps=10.0, period_s=60.0)
        assert rate(0.0) == pytest.approx(2.0)  # trough at t=0
        assert rate(30.0) == pytest.approx(10.0)  # crest at half period
        assert rate(60.0) == pytest.approx(2.0)  # back to trough
        with pytest.raises(LoadgenError):
            diurnal(5.0, 2.0, 60.0)  # peak below base

    def test_scaled_and_summed(self):
        doubled = scaled(constant_rate(3.0), 2.0)
        assert doubled(1.0) == pytest.approx(6.0)
        both = summed(constant_rate(1.0), constant_rate(2.5))
        assert both(0.0) == pytest.approx(3.5)
        with pytest.raises(LoadgenError):
            scaled(constant_rate(1.0), 0.0)
        with pytest.raises(LoadgenError):
            summed()

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_named_profiles_are_mean_normalized(self, name):
        """Every named shape offers the same mean load as constant at rps."""
        rps, period = 6.0, 10.0
        profile = profile_from_name(name, rps, burst_multiplier=4.0, period_s=period)
        samples = 10_000
        step = period / samples
        # Midpoint sampling over one full period (both shapes are periodic).
        mean = sum(profile((i + 0.5) * step) for i in range(samples)) / samples
        assert mean == pytest.approx(rps, rel=1e-3)

    def test_unknown_profile_name(self):
        with pytest.raises(LoadgenError, match="unknown profile"):
            profile_from_name("sawtooth", 5.0)

    def test_peak_rate_envelopes_the_profile(self):
        assert peak_rate(constant_rate(5.0), 10.0) == pytest.approx(5.25)
        profile = bursty(1.0, 8.0, period_s=2.0, duty=0.5)
        ceiling = peak_rate(profile, 10.0)
        assert ceiling >= 8.0
        with pytest.raises(LoadgenError, match="zero"):
            peak_rate(lambda t: 0.0, 10.0)


class TestArrivalTimes:
    def test_deterministic_per_seed(self):
        profile = constant_rate(50.0)
        first = arrival_times(profile, 2.0, Random(11))
        second = arrival_times(profile, 2.0, Random(11))
        assert first == second
        assert first  # 50 rps x 2 s draws a non-empty schedule

    def test_different_seeds_differ(self):
        profile = constant_rate(50.0)
        assert arrival_times(profile, 2.0, Random(1)) != arrival_times(
            profile, 2.0, Random(2)
        )

    def test_ascending_and_in_range(self):
        times = arrival_times(constant_rate(100.0), 1.5, Random(3))
        assert times == sorted(times)
        assert all(0.0 < t < 1.5 for t in times)

    def test_thinning_tracks_the_rate(self):
        # A bursty profile should put most arrivals inside the burst window.
        profile = bursty(base_rps=1.0, burst_rps=50.0, period_s=1.0, duty=0.2)
        times = arrival_times(profile, 20.0, Random(5))
        in_burst = sum(1 for t in times if (t % 1.0) < 0.2)
        assert in_burst / len(times) > 0.8

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(LoadgenError, match="duration"):
            arrival_times(constant_rate(5.0), 0.0, Random(0))


# --------------------------------------------------------------------------- #
# Query mix
# --------------------------------------------------------------------------- #
class TestQueryMix:
    def test_payload_ladder(self):
        mix = QueryMix.payload_ladder(
            axes=(4, 4), reduce_axes=(0,), base_bytes=1000, distinct=3
        )
        assert mix.distinct == 3
        assert [q.bytes_per_device for q in mix.queries] == [1000, 2000, 3000]
        assert len({q.to_json() for q in mix.queries}) == 3  # distinct fingerprints
        assert all(q.max_program_size == 3 for q in mix.queries)

    def test_validation(self):
        with pytest.raises(LoadgenError, match="distinct"):
            QueryMix.payload_ladder(axes=(4, 4), distinct=0)
        with pytest.raises(LoadgenError, match="at least one"):
            QueryMix(queries=())

    def test_sample_is_seeded_and_uniformish(self):
        mix = QueryMix.payload_ladder(axes=(4, 4), distinct=4)
        drawn = [mix.sample(Random(9)) for _ in range(5)]
        again = [mix.sample(Random(9)) for _ in range(5)]
        assert drawn == again
        rng = Random(9)
        seen = {mix.sample(rng).bytes_per_device for _ in range(200)}
        assert len(seen) == 4  # every distinct query gets traffic

    def test_validate_tenants(self):
        assert validate_tenants(["a", " b ", "", "  "]) == ["a", "b"]
        assert validate_tenants([]) == []


# --------------------------------------------------------------------------- #
# LoadReport derivation
# --------------------------------------------------------------------------- #
class TestLoadReport:
    def _snapshot(self):
        recorder = Recorder()
        recorder.count("loadgen.offered", 12)
        recorder.count("loadgen.sent", 10)
        recorder.count("loadgen.ok", 8)
        recorder.count("loadgen.shed", 2)
        recorder.count("loadgen.cache_hit", 6)
        recorder.count("loadgen.cache_miss", 2)
        recorder.count("loadgen.tenant.alpha.sent", 5)
        recorder.count("loadgen.tenant.beta.sent", 5)
        for value in (0.010, 0.020, 0.030, 0.040):
            recorder.observe("loadgen.latency", value)
        for value in (0.010, 0.020):
            recorder.observe("loadgen.latency.hit", value)
        return recorder.drain()

    def test_from_snapshot_derives_everything(self):
        report = LoadReport.from_snapshot(
            "phase", self._snapshot(), duration_s=2.0, elapsed_s=4.0
        )
        assert report.offered == 12
        assert report.sent == 10
        assert report.ok == 8
        assert report.shed == 2
        assert report.throughput_rps == pytest.approx(2.0)  # 8 ok / 4 s
        assert report.shed_rate == pytest.approx(0.2)  # 2 / 10 sent
        assert report.cache_hit_ratio == pytest.approx(0.75)  # 6 / (6+2)
        assert report.tenants == {"alpha": 5, "beta": 5}
        assert report.latency["count"] == 4
        assert report.latency["p50_s"] == pytest.approx(0.020, rel=0.25)
        assert report.latency["max_s"] == pytest.approx(0.040)
        assert report.hit_latency["count"] == 2
        assert report.miss_latency is None  # no miss-latency samples recorded

    def test_to_dict_round_trips_through_json(self):
        report = LoadReport.from_snapshot("phase", self._snapshot(), 2.0, 4.0)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["label"] == "phase"
        assert data["cache_hits"] == 6
        assert data["tenants"] == {"alpha": 5, "beta": 5}
        assert "snapshot" not in data  # the embedded snapshot stays out

    def test_describe_with_and_without_latency(self):
        with_latency = LoadReport.from_snapshot("warm", self._snapshot(), 2.0, 4.0)
        text = with_latency.describe()
        assert "[warm]" in text and "p50" in text and "p99" in text
        empty = LoadReport(label="idle", duration_s=1.0, elapsed_s=1.0)
        text = empty.describe()
        assert "[idle] 0/0 ok" in text and "p50" not in text

    def test_empty_snapshot_divides_safely(self):
        report = LoadReport.from_snapshot("idle", Recorder().drain(), 1.0, 0.0)
        assert report.throughput_rps == 0.0
        assert report.shed_rate == 0.0
        assert report.cache_hit_ratio == 0.0
        assert report.latency is None


class TestHarnessValidation:
    MIX = QueryMix.payload_ladder(axes=(4, 4), distinct=2)

    def test_rejects_bad_duration_and_concurrency(self):
        with pytest.raises(LoadgenError, match="duration"):
            LoadHarness(self.MIX, constant_rate(5.0), 0.0, port=1)
        with pytest.raises(LoadgenError, match="concurrency"):
            LoadHarness(
                self.MIX, constant_rate(5.0), 1.0, port=1, concurrency=0
            )

    def test_empty_schedule_fails_loudly(self):
        harness = LoadHarness(
            self.MIX, constant_rate(1e-6), 1.0, port=1, seed=0
        )
        assert harness.schedule() == []
        with pytest.raises(LoadgenError, match="empty"):
            harness.run()


# --------------------------------------------------------------------------- #
# End to end against a live daemon
# --------------------------------------------------------------------------- #
MIX = QueryMix.payload_ladder(
    axes=(4, 4), reduce_axes=(0,), base_bytes=1 << 20, distinct=2,
    max_program_size=3,
)


@pytest.fixture(scope="module")
def daemon():
    recorder = Recorder()
    service = PlanningService(figure2a_system(), recorder=recorder)
    with DaemonThread(
        service, DaemonConfig(port=0, queue_limit=64), recorder=recorder
    ) as handle:
        yield handle


class TestHarnessEndToEnd:
    def test_probe_then_run(self, daemon):
        host, port = daemon.address
        harness = LoadHarness(
            MIX,
            constant_rate(30.0),
            1.0,
            host=host,
            port=port,
            seed=4,
            concurrency=4,
            tenants=("alpha", "beta"),
        )
        before = harness.fetch_daemon_snapshot().counters.get("serve.ok", 0)

        cold = harness.probe("cold")
        assert cold.sent == cold.ok == MIX.distinct
        assert cold.cache_misses == MIX.distinct  # a cold daemon: all misses
        assert cold.cache_hits == 0
        assert cold.miss_latency["count"] == MIX.distinct

        warm = harness.run("warm")
        scheduled = len(harness.schedule())
        assert warm.offered == scheduled
        assert warm.sent == warm.ok == scheduled
        assert warm.cache_hit_ratio == 1.0  # the probe planned the whole mix
        assert warm.shed == 0 and warm.errors == 0
        assert warm.hit_latency["count"] == scheduled
        # Round-robin tenants: every request carries one of the two labels.
        assert sum(warm.tenants.values()) == scheduled
        assert set(warm.tenants) == {"alpha", "beta"}

        after = harness.fetch_daemon_snapshot().counters.get("serve.ok", 0)
        assert after - before == cold.ok + warm.ok


class TestLoadgenCli:
    def test_loadgen_against_live_daemon(self, daemon, tmp_path, capsys):
        from repro.cli import main

        host, port = daemon.address
        out = tmp_path / "BENCH_daemon_load.json"
        snapshot_out = tmp_path / "snapshot.json"
        exit_code = main(
            [
                "loadgen",
                "--host", host,
                "--port", str(port),
                "--duration", "1",
                "--rps", "20",
                "--distinct", "2",
                "--axes", "4", "4",
                "--reduce", "0",
                "--max-program-size", "3",
                "--seed", "3",
                "--concurrency", "4",
                "--out", str(out),
                "--snapshot-out", str(snapshot_out),
                "--json",
            ]
        )
        assert exit_code == 0
        phases = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert [p["label"] for p in phases] == ["cold", "constant"]

        record = json.loads(out.read_text())
        assert record["name"] == "daemon_load"
        assert record["counters"]["distinct_queries"] == 2
        assert record["counters"]["requests"] == record["warm"]["offered"]
        assert record["median_seconds"] > 0
        assert 0.0 <= record["shed_rate"] <= 1.0
        assert record["cache_hit_ratio"] == 1.0
        assert record["profile"] == "constant"

        snapshot = json.loads(snapshot_out.read_text())
        assert snapshot["schema"] == "repro.obs/1"
        # Merged client + daemon telemetry: both sides are present.
        assert snapshot["counters"]["loadgen.sent"] > 0
        assert snapshot["counters"]["serve.ok"] > 0

    def test_stats_renders_serving_section(self, daemon, tmp_path, capsys):
        from repro.cli import main

        host, port = daemon.address
        snapshot_out = tmp_path / "snap.json"
        assert main(
            [
                "loadgen",
                "--host", host, "--port", str(port),
                "--duration", "1", "--rps", "10",
                "--distinct", "2", "--axes", "4", "4",
                "--max-program-size", "3",
                "--tenants", "alpha,beta",
                "--skip-probe",
                "--snapshot-out", str(snapshot_out),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(snapshot_out)]) == 0
        rendered = capsys.readouterr().out
        assert "serving:" in rendered
        assert "loadgen" in rendered
        assert "alpha" in rendered and "beta" in rendered

    def test_needs_an_address(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="ready-file"):
            main(["loadgen", "--duration", "1"])

    def test_rps_and_users_are_exclusive(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="not both"):
            main(["loadgen", "--port", "1", "--rps", "5", "--users", "3"])

    def test_ready_file_resolution(self, tmp_path):
        from repro.cli import _resolve_daemon_address

        ready = tmp_path / "ready.json"
        ready.write_text(json.dumps({"host": "10.0.0.5", "port": 1234}))
        args = argparse.Namespace(
            ready_file=str(ready), unix=None, host="x", port=None
        )
        assert _resolve_daemon_address(args) == ("10.0.0.5", 1234, None)

        ready.write_text(json.dumps({"unix_path": "/tmp/p.sock", "port": None}))
        assert _resolve_daemon_address(args) == (None, None, "/tmp/p.sock")

        args = argparse.Namespace(
            ready_file=None, unix="/tmp/q.sock", host="x", port=None
        )
        assert _resolve_daemon_address(args) == (None, None, "/tmp/q.sock")

    def test_unreadable_ready_file(self):
        from repro.cli import _resolve_daemon_address

        args = argparse.Namespace(
            ready_file="/nonexistent/ready.json", unix=None, host="x", port=None
        )
        with pytest.raises(SystemExit, match="ready-file"):
            _resolve_daemon_address(args)

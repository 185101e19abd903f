"""Tests for plan serialization and the two-tier plan cache."""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import subprocess
import sys

import pytest

from repro.api import P2, OptimizationPlan
from repro.errors import ServiceError
from repro.hierarchy.parallelism import ReductionRequest
from repro.query import PlanQuery
from repro.runtime.verification import verify_against_placement
import repro.service.cache as cache_module
from repro.service.cache import PLAN_FORMAT_VERSION, PlanCache
from repro.topology.gcp import a100_system

MB = 1 << 20
QUERY = PlanQuery((8, 4), (0,), bytes_per_device=64 * MB, max_program_size=3)


def _ranking(plan):
    return [
        (s.matrix.describe(), s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


@pytest.fixture(scope="module")
def plan():
    return P2(a100_system(num_nodes=2)).plan(QUERY).plan


class TestPlanRoundTrip:
    def test_ranking_survives_roundtrip(self, plan):
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert _ranking(restored) == _ranking(plan)

    def test_programs_survive_roundtrip(self, plan):
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert [s.program.signature() for s in restored.strategies] == [
            s.program.signature() for s in plan.strategies
        ]

    def test_query_fields_survive_roundtrip(self, plan):
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert restored.axes == plan.axes
        assert restored.request.axes == plan.request.axes
        assert restored.bytes_per_device == plan.bytes_per_device
        assert restored.algorithm == plan.algorithm

    def test_restored_plan_supports_the_plan_api(self, plan):
        restored = OptimizationPlan.from_dict(plan.to_dict())
        assert restored.best.mnemonic == plan.best.mnemonic
        assert restored.speedup_over_default() == plan.speedup_over_default()
        assert restored.default_all_reduce().is_default_all_reduce
        assert len(restored.candidates) == len(plan.candidates)

    def test_restored_strategies_verify_numerically(self, plan):
        restored = OptimizationPlan.from_dict(plan.to_dict())
        best = restored.best
        report = verify_against_placement(
            best.program, best.candidate.placement, ReductionRequest.over(0)
        )
        assert report.ok

    def test_json_safe(self, plan):
        encoded = json.dumps(plan.to_dict())
        assert _ranking(OptimizationPlan.from_dict(json.loads(encoded))) == _ranking(plan)

    def test_version_gate(self, plan):
        data = plan.to_dict()
        data["format_version"] = PLAN_FORMAT_VERSION + 1
        with pytest.raises(ServiceError):
            OptimizationPlan.from_dict(data)


class TestMemoryTier:
    def test_get_miss_then_hit(self, plan):
        cache = PlanCache()
        assert cache.lookup("abc")[0] is None
        cache.put("abc", plan.to_dict())
        assert cache.lookup("abc") == (plan.to_dict(), "memory")
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = PlanCache()
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        cache.lookup("a")[0]  # refresh "a": now "b" is least recently used
        cache.put("c", {"n": 3})
        assert cache.lookup("a")[0] is not None
        assert cache.lookup("b")[0] is None  # evicted
        assert cache.lookup("c")[0] is not None
        assert cache.stats.evictions == 1

    def test_the_bound_is_a_module_constant_not_a_knob(self):
        assert cache_module.MEMORY_ENTRIES == 128
        assert "memory 0/128" in PlanCache().describe()
        with pytest.raises(TypeError):
            PlanCache(capacity=2)


class TestDiskTier:
    def test_persists_across_cache_instances(self, plan, tmp_path):
        first = PlanCache(directory=tmp_path)
        first.put("deadbeef", plan.to_dict())

        second = PlanCache(directory=tmp_path)
        loaded, tier = second.lookup("deadbeef")
        assert tier == "disk"
        assert _ranking(OptimizationPlan.from_dict(loaded)) == _ranking(plan)
        # A second lookup is served from memory (disk hit promoted).
        assert second.lookup("deadbeef")[1] == "memory"

    def test_plan_written_by_a_previous_process_loads(self, tmp_path):
        """End-to-end restart test: one process writes the cache, another reads it."""
        script = (
            "import sys\n"
            "from repro.service import PlanCache, PlanningService, PlanQuery\n"
            "from repro.topology.gcp import a100_system\n"
            "service = PlanningService(a100_system(num_nodes=1),\n"
            "                          cache=PlanCache(sys.argv[1]))\n"
            "outcome = service.plan(PlanQuery((4, 4), (0,), 1 << 20, max_program_size=2))\n"
            "print(outcome.fingerprint)\n"
            "print(outcome.plan.best.predicted_seconds)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        output = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        fingerprint, best_seconds = output.stdout.split()

        from repro.service import PlanningService

        service = PlanningService(a100_system(num_nodes=1), cache=PlanCache(tmp_path))
        outcome = service.plan(PlanQuery((4, 4), (0,), 1 << 20, max_program_size=2))
        assert outcome.fingerprint == fingerprint
        assert outcome.cache_tier == "disk"
        assert repr(outcome.plan.best.predicted_seconds) == best_seconds

    def test_corrupted_entry_is_a_miss_and_removed(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("feedface", plan.to_dict())
        path = tmp_path / "feedface.json"
        path.write_text("{ not json at all")

        fresh = PlanCache(directory=tmp_path)
        assert fresh.lookup("feedface")[0] is None
        assert fresh.stats.corrupt_entries == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe" + b"{}", b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "nested-past-the-parser"],
    )
    def test_unreadable_entry_is_a_corrupt_miss_and_removed(self, plan, tmp_path, content):
        PlanCache(directory=tmp_path).put("beef", plan.to_dict())
        path = tmp_path / "beef.json"
        path.write_bytes(content)

        fresh = PlanCache(directory=tmp_path)
        assert fresh.lookup("beef") == (None, None)
        assert (fresh.stats.corrupt_entries, fresh.stats.misses) == (1, 1)
        assert not path.exists()

    def test_wrong_fingerprint_in_envelope_is_corrupt(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("aaaa", plan.to_dict())
        (tmp_path / "aaaa.json").rename(tmp_path / "bbbb.json")

        fresh = PlanCache(directory=tmp_path)
        assert fresh.lookup("bbbb")[0] is None
        assert fresh.stats.corrupt_entries == 1

    def test_stale_format_version_is_corrupt(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("cafe", plan.to_dict())
        path = tmp_path / "cafe.json"
        envelope = json.loads(path.read_text())
        envelope["format_version"] = PLAN_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))

        fresh = PlanCache(directory=tmp_path)
        assert fresh.lookup("cafe")[0] is None
        assert fresh.stats.corrupt_entries == 1

    def test_indented_entry_from_an_older_writer_is_a_clean_disk_hit(self, plan, tmp_path):
        # Entries used to be written with indent=2; the format version did not
        # change, so a cache directory from before must keep answering.
        envelope = {
            "format_version": PLAN_FORMAT_VERSION,
            "fingerprint": "0ldf00d",
            "plan": plan.to_dict(),
        }
        (tmp_path / "0ldf00d.json").write_text(json.dumps(envelope, indent=2))

        cache = PlanCache(directory=tmp_path)
        loaded, tier = cache.lookup("0ldf00d")
        assert tier == "disk"
        assert cache.stats.corrupt_entries == 0
        assert _ranking(OptimizationPlan.from_dict(loaded)) == _ranking(plan)

    def test_entries_are_written_compactly(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("c0ffee", plan.to_dict())
        text = (tmp_path / "c0ffee.json").read_text()
        assert "\n" not in text
        assert json.loads(text)["plan"] == plan.to_dict()

    def test_clear_empties_both_tiers(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("one", plan.to_dict())
        cache.put("two", plan.to_dict())
        removed = cache.clear()
        # Each plan lives in both tiers but counts once.
        assert removed == 2
        assert cache.num_memory_entries == 0
        assert cache.disk_fingerprints() == []

    def test_discard_drops_one_entry_from_both_tiers(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("one", plan.to_dict())
        cache.put("two", plan.to_dict())
        cache.discard("one", corrupt=True)
        assert cache.lookup("one")[0] is None
        assert cache.lookup("two")[0] is not None
        assert cache.disk_fingerprints() == ["two"]
        assert cache.stats.corrupt_entries == 1

    def test_describe_mentions_both_tiers(self, plan, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("one", plan.to_dict())
        text = cache.describe()
        assert "memory 1" in text
        assert "disk 1" in text


class TestWritersSharingADirectory:
    """Two caches over one directory (two processes) storing one fingerprint."""

    FINGERPRINT = "f" * 64

    def test_interleaved_puts_both_return_and_leave_one_whole_entry(
        self, plan, tmp_path, monkeypatch
    ):
        first, second = PlanCache(tmp_path), PlanCache(tmp_path)
        data = plan.to_dict()
        real_fdopen = os.fdopen
        interleaved = []

        class HalfWayStream:
            """The first writer's stream: the second writer stores the same
            fingerprint, start to finish, while half the file is written."""

            def __init__(self, stream):
                self.stream = stream

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.stream.close()

            def write(self, text):
                self.stream.write(text[: len(text) // 2])
                self.stream.flush()
                second.put(TestWritersSharingADirectory.FINGERPRINT, data)
                interleaved.append(sorted(p.name for p in tmp_path.iterdir()))
                return self.stream.write(text[len(text) // 2 :])

        def fdopen(fd, *args, **kwargs):
            monkeypatch.setattr(os, "fdopen", real_fdopen)  # the first writer only
            return HalfWayStream(real_fdopen(fd, *args, **kwargs))

        monkeypatch.setattr(os, "fdopen", fdopen)
        first.put(self.FINGERPRINT, data)

        # The second writer published its own complete file while the first
        # one's half-written temp file sat beside it under another name.
        (during,) = interleaved
        assert f"{self.FINGERPRINT}.json" in during
        assert len([name for name in during if name.endswith(".tmp")]) == 1
        assert [p.name for p in tmp_path.iterdir()] == [f"{self.FINGERPRINT}.json"]
        reader = PlanCache(tmp_path)
        loaded, tier = reader.lookup(self.FINGERPRINT)
        assert tier == "disk" and reader.stats.corrupt_entries == 0
        assert json.dumps(loaded, sort_keys=True) == json.dumps(data, sort_keys=True)
        assert _ranking(OptimizationPlan.from_dict(loaded)) == _ranking(plan)
        assert reader.disk_fingerprints() == [self.FINGERPRINT]

    def test_a_failed_write_removes_its_temp_file(self, plan, tmp_path, monkeypatch):
        cache = PlanCache(tmp_path)

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            cache.put(self.FINGERPRINT, plan.to_dict())
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_entries_get_the_umask_default_mode_not_mkstemps(self, plan, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        PlanCache(tmp_path).put(self.FINGERPRINT, plan.to_dict())
        entry = tmp_path / f"{self.FINGERPRINT}.json"
        assert stat.S_IMODE(entry.stat().st_mode) == 0o666 & ~umask

    def test_stale_temp_files_are_not_entries_and_clear_removes_them(
        self, plan, tmp_path
    ):
        cache = PlanCache(tmp_path)
        cache.put("one", plan.to_dict())
        entry_bytes = cache.disk_bytes()
        # What a writer killed mid-store leaves behind, old name and new.
        (tmp_path / "one.json.tmp").write_text('{"format_version": 1, "plan"')
        (tmp_path / "two.k3j2h1.tmp").write_text("{")
        assert cache.disk_fingerprints() == ["one"]
        assert cache.disk_bytes() == entry_bytes
        assert PlanCache(tmp_path).lookup("two")[0] is None
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# The interned plan format (v4): a "steps" table, programs as indices into it
# --------------------------------------------------------------------------- #
def _distinct_step_objects(plan):
    return len({id(step) for s in plan.strategies for step in s.program.steps})


def _v3_plan_dict(plan):
    """``plan`` as the previous format wrote it: every step inline in every program."""
    data = plan.to_dict()
    del data["steps"]
    data["format_version"] = 3
    for entry, strategy in zip(data["strategies"], plan.strategies):
        program = strategy.program
        entry["program"] = {
            "label": program.label, "steps": [step.to_dict() for step in program.steps],
        }
    return data


def _service(cache):
    from repro.service import PlanningService

    return PlanningService(a100_system(num_nodes=2), cache=cache)


def _signatures(plan):
    return [s.program.signature() for s in plan.strategies]


class TestInternedFormat:
    def test_steps_are_written_once_and_rebuilt_once(self, plan):
        data = json.loads(json.dumps(plan.to_dict()))
        restored = OptimizationPlan.from_dict(data)
        assert len(data["steps"]) == _distinct_step_objects(plan)
        assert _distinct_step_objects(restored) == len(data["steps"])
        assert _ranking(restored) == _ranking(plan)
        assert _signatures(restored) == _signatures(plan)
        assert restored.to_dict() == data

    def test_programs_are_labels_and_index_lists(self, plan):
        data = plan.to_dict()
        for entry, strategy in zip(data["strategies"], plan.strategies):
            program = entry["program"]
            assert set(program) == {"label", "steps"}
            assert program["label"] == strategy.program.label
            assert [data["steps"][i] for i in program["steps"]] == [
                step.to_dict() for step in strategy.program.steps
            ]

    def test_from_dict_builds_one_step_per_table_entry(self, plan, monkeypatch):
        from repro.synthesis.lowering import LoweredStep

        data = plan.to_dict()
        built = []
        check = LoweredStep.__post_init__

        def counting(step):
            built.append(step)
            check(step)

        monkeypatch.setattr(LoweredStep, "__post_init__", counting)
        OptimizationPlan.from_dict(data)
        assert len(built) == len(data["steps"])

    def test_equal_steps_from_distinct_objects_share_one_entry(self, plan):
        import copy

        # A plan whose strategies hold equal but distinct step objects (as a
        # plan assembled from two sources might) still writes each step once.
        twin = copy.copy(plan)
        twin.strategies = [
            dataclasses.replace(
                s, program=dataclasses.replace(s.program, steps=copy.deepcopy(s.program.steps))
            )
            for s in plan.strategies
        ]
        assert _distinct_step_objects(twin) > _distinct_step_objects(plan)
        assert twin.to_dict()["steps"] == plan.to_dict()["steps"]

    def test_v3_plan_dict_is_refused(self, plan):
        with pytest.raises(ServiceError, match="version 3"):
            OptimizationPlan.from_dict(_v3_plan_dict(plan))

    def test_v3_envelope_on_disk_is_a_corrupt_miss_and_recomputed(
        self, plan, tmp_path
    ):
        fingerprint = _service(PlanCache(None)).plan(QUERY).fingerprint
        path = tmp_path / f"{fingerprint}.json"
        path.write_text(
            json.dumps(
                {"format_version": 3, "fingerprint": fingerprint, "plan": _v3_plan_dict(plan)}
            )
        )
        service = _service(PlanCache(tmp_path))
        outcome = service.plan(QUERY)
        assert not outcome.cache_hit
        assert service.cache.stats.corrupt_entries == 1
        assert _ranking(outcome.plan) == _ranking(plan)
        # The recomputed plan replaced the old entry in the current format.
        assert json.loads(path.read_text())["format_version"] == PLAN_FORMAT_VERSION


CORRUPT_INDICES = {
    "table_length": lambda size: size,
    "negative": lambda size: -1,
    "bool": lambda size: True,
    "string": lambda size: "0",
    "float": lambda size: 1.0,
}


def _corrupt_first_index(data, make_index):
    entry = next(e for e in data["strategies"] if e["program"]["steps"])
    entry["program"]["steps"][0] = make_index(len(data["steps"]))


class TestCorruptStepIndex:
    """A step index that names no table entry is a corrupt entry, never a wrong plan."""

    @pytest.mark.parametrize("case", sorted(CORRUPT_INDICES))
    def test_from_dict_raises_lowering_error(self, plan, case):
        from repro.errors import LoweringError

        data = json.loads(json.dumps(plan.to_dict()))
        _corrupt_first_index(data, CORRUPT_INDICES[case])
        with pytest.raises(LoweringError, match="step index"):
            OptimizationPlan.from_dict(data)

    @pytest.mark.parametrize("case", sorted(CORRUPT_INDICES))
    def test_memory_tier(self, plan, case):
        service = _service(PlanCache(None))
        cold = service.plan(QUERY)
        cached, tier = service.cache.lookup(cold.fingerprint)
        assert tier == "memory"
        _corrupt_first_index(cached, CORRUPT_INDICES[case])

        recovered = service.plan(QUERY)
        assert not recovered.cache_hit
        assert service.cache.stats.corrupt_entries == 1
        assert _ranking(recovered.plan) == _ranking(plan)
        assert _signatures(recovered.plan) == _signatures(plan)
        assert service.plan(QUERY).cache_tier == "memory"

    @pytest.mark.parametrize("case", sorted(CORRUPT_INDICES))
    def test_disk_tier(self, plan, case, tmp_path):
        fingerprint = _service(PlanCache(tmp_path)).plan(QUERY).fingerprint
        path = tmp_path / f"{fingerprint}.json"
        envelope = json.loads(path.read_text())
        _corrupt_first_index(envelope["plan"], CORRUPT_INDICES[case])
        path.write_text(json.dumps(envelope))

        service = _service(PlanCache(tmp_path))
        recovered = service.plan(QUERY)
        assert not recovered.cache_hit
        assert service.cache.stats.corrupt_entries == 1
        assert service.cache.stats.hits == 0
        assert _ranking(recovered.plan) == _ranking(plan)
        assert _signatures(recovered.plan) == _signatures(plan)
        # The entry was rewritten whole: a fresh process now hits on disk.
        assert _service(PlanCache(tmp_path)).plan(QUERY).cache_tier == "disk"

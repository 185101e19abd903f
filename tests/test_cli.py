"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_arguments(self):
        args = build_parser().parse_args(
            ["optimize", "--axes", "8", "4", "--reduce", "0", "--nodes", "2"]
        )
        assert args.command == "optimize"
        assert args.axes == [8, 4]
        assert args.reduce == [0]

    def test_table_commands_accept_payload_scale(self):
        args = build_parser().parse_args(["table4", "--payload-scale", "0.01", "--quick"])
        assert args.payload_scale == pytest.approx(0.01)
        assert args.quick

    def test_optimize_accepts_search_limits(self):
        args = build_parser().parse_args(
            ["optimize", "--axes", "8", "4", "--max-matrices", "2",
             "--max-program-size", "3"]
        )
        assert args.max_matrices == 2
        assert args.max_program_size == 3

    def test_serve_batch_arguments(self):
        args = build_parser().parse_args(
            ["serve-batch", "--nodes", "2", "--query", "8,4:0:1048576",
             "--cache-dir", "/tmp/x"]
        )
        assert args.command == "serve-batch"
        assert args.query == ["8,4:0:1048576"]
        assert args.cache_dir == "/tmp/x"

    @pytest.mark.parametrize("command", [
        ["optimize", "--axes", "8", "4"],
        ["serve-batch", "--query", "8,4:0:1048576"],
        ["serve", "--port", "0"],
        ["sweep", "--preset", "smoke"],
    ])
    def test_workers_flag_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_program_size_flag_is_a_usage_error(self, capsys):
        # The limit belongs to each query; the daemon holds none of its own.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--max-program-size", "3"])
        assert exit_info.value.code == 2
        assert "--max-program-size" in capsys.readouterr().err

    def test_serve_batch_program_size_sets_the_query_default(self):
        args = build_parser().parse_args(["serve-batch", "--max-program-size", "3"])
        assert args.max_program_size == 3

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestMain:
    def test_optimize_command(self, capsys):
        exit_code = main(
            [
                "optimize",
                "--system", "a100",
                "--nodes", "2",
                "--axes", "8", "4",
                "--reduce", "0",
                "--bytes", str(32 << 20),
                "--top", "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "best strategy" in captured.out
        assert "speedup" in captured.out

    def test_table3_command_small(self, capsys):
        exit_code = main(["table3", "--payload-scale", "0.001"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 3" in captured.out

    def test_figure11_like_flow_via_optimize_tree(self, capsys):
        exit_code = main(
            [
                "optimize",
                "--system", "v100",
                "--nodes", "2",
                "--axes", "16",
                "--reduce", "0",
                "--algorithm", "tree",
                "--bytes", str(8 << 20),
            ]
        )
        assert exit_code == 0
        assert "strategies" in capsys.readouterr().out

    def test_plan_command(self, capsys):
        exit_code = main(
            [
                "plan",
                "--system", "a100",
                "--nodes", "2",
                "--axes", "2", "16",
                "--reduction", f"gradients:0:{32 << 20}",
                "--reduction", f"activations:1:{8 << 20}:4",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "best combined placement" in captured.out
        assert "gradients" in captured.out and "activations" in captured.out

    def test_plan_rejects_malformed_reduction(self):
        with pytest.raises(SystemExit):
            main(["plan", "--axes", "2", "16", "--reduction", "oops"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--system", "v100", "--nodes", "2", "--axes", "8", "4",
             "--reduction", "g:0:"],
            ["optimize", "--system", "v100", "--nodes", "2", "--axes", "8", "4",
             "--reduce", "0"],
        ],
        ids=["plan", "optimize"],
    )
    def test_planner_error_is_one_line_and_exit_two(self, capsys, argv):
        # 8 x 4 = 32-way parallelism on 16 devices: no placement exists.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-cli: error: no parallelism matrix exists")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_sweep_quick_with_out(self, capsys, tmp_path):
        from repro.analysis import load_jsonl_results

        target = tmp_path / "sweep.jsonl"
        exit_code = main(
            ["sweep", "--quick", "--payload-scale", "0.002", "--out", str(target)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Sweep summary" in captured.out
        assert "plan cache:" in captured.out
        assert len(load_jsonl_results(target)) == 6  # --quick keeps six scenarios

    def test_sweep_save_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--quick", "--save", str(tmp_path / "sweep.json")])
        assert exit_info.value.code == 2
        assert "--save" in capsys.readouterr().err

    def test_sweep_preset_json_emits_jsonl(self, capsys):
        import json

        exit_code = main(["sweep", "--preset", "smoke", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 3  # the smoke preset's stable scenario count
        for line in lines:
            record = json.loads(line)
            assert record["scenario"].startswith("smoke-")
            assert record["matrices"]
            assert record["provenance"]["fingerprint"]

    def test_sweep_preset_out_and_resume(self, capsys, tmp_path):
        import json

        out = tmp_path / "smoke.jsonl"
        assert main(["sweep", "--preset", "smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        cold_lines = out.read_text().splitlines()
        assert len(cold_lines) == 3

        # Drop the last record and resume: only the missing scenario reruns.
        out.write_text("\n".join(cold_lines[:2]) + "\n")
        assert main(
            ["sweep", "--preset", "smoke", "--out", str(out), "--resume"]
        ) == 0
        capsys.readouterr()
        resumed = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["scenario"] for r in resumed] == [
            json.loads(line)["scenario"] for line in cold_lines
        ]

    @pytest.mark.parametrize(
        "damage", [b'{"scenario": "\xff"}', b"[" * 100000], ids=["not-utf8", "nested-past-the-parser"]
    )
    def test_sweep_resume_skips_a_damaged_checkpoint_line(self, capsys, tmp_path, damage):
        import json

        from repro.analysis import iter_jsonl_records

        out = tmp_path / "smoke.jsonl"
        assert main(["sweep", "--preset", "smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        cold = out.read_bytes().splitlines()
        assert len(cold) == 3

        # The last record is replaced by a damaged line: resume reruns just it.
        out.write_bytes(b"\n".join(cold[:2] + [damage]) + b"\n")
        assert main(
            ["sweep", "--preset", "smoke", "--out", str(out), "--resume"]
        ) == 0
        capsys.readouterr()
        assert [r["scenario"] for r in iter_jsonl_records(out)] == [
            json.loads(line)["scenario"] for line in cold
        ]

    def test_sweep_resume_requires_out(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "smoke", "--resume"])

    def test_sweep_grid_file(self, capsys, tmp_path):
        import json

        from repro.evaluation.scenarios import ScenarioGrid

        grid = ScenarioGrid(
            name="clig",
            shapes=((8, 4),),
            payload_scales=(0.002,),
            max_program_size=3,
        )
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid.to_dict()))
        exit_code = main(["sweep", "--grid", str(grid_path), "--quick", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert [r["scenario"] for r in records] == ["clig-a100-2n-8x4-r0-s0p002-ring"]

    def test_sweep_cache_dir_makes_second_run_warm(self, capsys, tmp_path):
        import json

        argv = [
            "sweep", "--preset", "smoke", "--json",
            "--cache-dir", str(tmp_path / "plans"),
        ]
        assert main(argv) == 0
        first = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert main(argv) == 0
        second = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert all(r["provenance"]["cache_tier"] is None for r in first)
        assert all(r["provenance"]["cache_tier"] == "disk" for r in second)

    def test_sweep_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--preset", "warp-speed"])

    def test_sweep_explicit_payload_scale_overrides_preset_default(self, capsys):
        import json

        exit_code = main(
            ["sweep", "--preset", "smoke", "--json", "--payload-scale", "0.004"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert {r["config"]["payload_scale"] for r in records} == {0.004}
        # An explicit 1.0 must also win over the preset's 0.002 default.
        args = build_parser().parse_args(
            ["sweep", "--preset", "smoke", "--payload-scale", "1.0"]
        )
        assert args.payload_scale == 1.0
        assert build_parser().parse_args(["sweep", "--preset", "smoke"]).payload_scale is None

    def test_optimize_with_search_limits(self, capsys):
        exit_code = main(
            [
                "optimize",
                "--system", "a100",
                "--nodes", "2",
                "--axes", "8", "4",
                "--reduce", "0",
                "--bytes", str(32 << 20),
                "--max-matrices", "1",
                "--max-program-size", "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        # --max-matrices 1 keeps only the first placement.
        assert "of 3 strategies" in captured.out

    def test_serve_batch_cold_then_warm(self, capsys, tmp_path):
        argv = [
            "serve-batch",
            "--system", "a100",
            "--nodes", "2",
            "--max-program-size", "3",
            "--query", f"8,4:0:{32 << 20}",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[cold]" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[disk]" in second

    def test_serve_batch_queries_file(self, capsys, tmp_path):
        import json

        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps(
            [{"axes": [8, 4], "reduce": [0], "bytes": 32 << 20},
             {"axes": [8, 4], "reduce": [0], "bytes": 32 << 20}]
        ))
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[cold]" in captured.out
        assert "[memory]" in captured.out  # in-batch duplicate deduplicated

    def test_serve_batch_requires_queries(self):
        with pytest.raises(SystemExit):
            main(["serve-batch", "--nodes", "2"])

    def test_serve_batch_rejects_malformed_query(self):
        with pytest.raises(SystemExit):
            main(["serve-batch", "--query", "oops"])

    def test_serve_batch_rejects_bad_query_values(self):
        with pytest.raises(SystemExit):
            main(["serve-batch", "--query", "8,4:0:123:nccl"])  # bad algorithm
        with pytest.raises(SystemExit):
            main(["serve-batch", "--query", "8x4:0:123"])  # bad axes token

    def test_serve_batch_reports_malformed_queries_file_entry(self, tmp_path, capsys):
        import json

        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([{"reduce": [0]}]))  # missing "axes"
        exit_code = main(["serve-batch", "--queries-file", str(queries)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "bad_query" in captured.err
        assert "entry 0" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_batch_honours_max_matrices(self, capsys):
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--max-matrices", "1", "--query", f"8,4:0:{32 << 20}"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "over 1 placements" in captured.out

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--query", f"8,4:0:{32 << 20}", "--cache-dir", str(tmp_path)]
        )
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "1 entries" in stats_out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        clear_out = capsys.readouterr().out
        assert "removed 1" in clear_out
        assert list(tmp_path.glob("*.json")) == []

    def test_optimize_json_output(self, capsys):
        import json

        exit_code = main(
            [
                "optimize",
                "--system", "a100",
                "--nodes", "2",
                "--axes", "8", "4",
                "--reduce", "0",
                "--bytes", str(32 << 20),
                "--max-program-size", "3",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        outcome = json.loads(captured.out)
        assert outcome["query"]["axes"]["sizes"] == [8, 4]
        assert outcome["query"]["bytes_per_device"] == 32 << 20
        assert outcome["cache_hit"] is False
        assert len(outcome["fingerprint"]) == 64
        assert outcome["num_strategies"] == len(outcome["plan"]["strategies"])
        # strategies arrive ranked, cheapest first
        times = [s["predicted_seconds"] for s in outcome["plan"]["strategies"]]
        assert times == sorted(times)

    def test_serve_batch_json_output_is_jsonl(self, capsys):
        import json

        exit_code = main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--query", f"8,4:0:{32 << 20}", "--query", f"8,4:0:{32 << 20}",
             "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True and second["cache_tier"] == "memory"
        assert first["fingerprint"] == second["fingerprint"]

    def test_serve_batch_accepts_planquery_dict_file(self, capsys, tmp_path):
        import json

        from repro import PlanQuery

        query = PlanQuery((8, 4), (0,), 32 << 20, max_program_size=3)
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps([query.to_dict()]))
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[cold]" in captured.out

    def test_serve_batch_accepts_jsonl_file(self, capsys, tmp_path):
        from repro import PlanQuery

        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            PlanQuery((8, 4), (0,), 32 << 20, max_program_size=3).to_json()
            + "\n"
            + PlanQuery((8, 4), (1,), 8 << 20, max_program_size=3).to_json()
            + "\n"
        )
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count("query ") == 2

    def test_serve_batch_accepts_single_query_object_file(self, capsys, tmp_path):
        import json

        queries = tmp_path / "query.json"
        queries.write_text(
            json.dumps({"axes": [8, 4], "reduce": [0], "bytes": 32 << 20})
        )
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.count("query ") == 1

    def test_serve_batch_reports_unparseable_queries_file(self, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text("{ not json\nnot jsonl either")
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "bad_json" in captured.err
        assert "no valid queries" in captured.err

    def test_serve_batch_answers_valid_lines_despite_torn_ones(self, tmp_path, capsys):
        import json

        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"axes": [8, 4], "reduce": [0], "bytes": 1 << 20}) + "\n"
            + "{ torn line\n"
            + json.dumps({"axes": [4, 8], "reduce": [0], "bytes": 1 << 20}) + "\n"
        )
        exit_code = main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--max-matrices", "1", "--json", "--queries-file", str(queries)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1  # a torn line still fails the run at the end
        records = [json.loads(line) for line in captured.out.splitlines()]
        errors = [r for r in records if "error" in r]
        outcomes = [r for r in records if "query" in r]
        assert len(outcomes) == 2  # both valid lines were answered
        assert errors == [
            {
                "file": str(queries),
                "error": "bad_json",
                "line": 2,
                "detail": errors[0]["detail"],
            }
        ]

    def test_emit_command(self, capsys):
        exit_code = main(
            [
                "emit",
                "--system", "a100",
                "--nodes", "2",
                "--axes", "32",
                "--reduce", "0",
                "--bytes", str(64 << 20),
                "--elements", "65536",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "HloModule" in captured.out
        assert "replica_groups" in captured.out


class TestCacheStatsJson:
    def test_cache_stats_json_reports_disk_counters(self, capsys, tmp_path):
        import json

        main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--query", f"8,4:0:{32 << 20}", "--cache-dir", str(tmp_path)]
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        # Snapshot schema: the same shape the telemetry exporters emit.
        counters = snapshot["counters"]
        assert counters["cache.disk_entries"] == 1
        assert counters["cache.disk_bytes"] > 0


class TestCorpusCli:
    OPTIMIZE = [
        "optimize", "--system", "a100", "--nodes", "2",
        "--axes", "8", "4", "--reduce", "0", "--max-program-size", "3",
    ]

    def test_optimize_corpus_round_trip_seeds_second_run(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        first = self.OPTIMIZE + ["--bytes", str(16 << 20), "--corpus", corpus_dir]
        assert main(first) == 0
        out = capsys.readouterr().out
        assert "seeded incumbent" not in out  # nothing to seed from yet
        second = self.OPTIMIZE + ["--bytes", str(32 << 20), "--corpus", corpus_dir]
        assert main(second) == 0
        out = capsys.readouterr().out
        assert "time to incumbent:" in out
        assert "(seeded incumbent)" in out

        assert main(["corpus", "stats", "--corpus", corpus_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "2 records" in stats_out

    def test_corpus_stats_json(self, capsys, tmp_path):
        import json

        corpus_dir = str(tmp_path / "corpus")
        run = self.OPTIMIZE + ["--bytes", str(16 << 20), "--corpus", corpus_dir]
        assert main(run) == 0
        capsys.readouterr()
        assert main(["corpus", "stats", "--corpus", corpus_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 1
        assert stats["distinct_fingerprints"] == 1
        assert stats["total_bytes"] > 0

    def test_corpus_ingest_and_compact(self, capsys, tmp_path):
        main(
            ["serve-batch", "--nodes", "2", "--max-program-size", "3",
             "--query", f"8,4:0:{16 << 20}", "--query", f"8,4:0:{32 << 20}",
             "--json"]
        )
        out_file = tmp_path / "outcomes.jsonl"
        out_file.write_text(capsys.readouterr().out)
        corpus_dir = str(tmp_path / "corpus")
        ingest = ["corpus", "ingest", "--corpus", corpus_dir, str(out_file)]
        assert main(ingest) == 0
        assert "ingested 2 outcome(s)" in capsys.readouterr().out
        # Re-ingesting the same file is a no-op: everything dedupes.
        assert main(ingest) == 0
        assert "ingested 0 outcome(s)" in capsys.readouterr().out

        compact = ["corpus", "compact", "--corpus", corpus_dir, "--max-records", "1"]
        assert main(compact) == 0
        out = capsys.readouterr().out
        assert "dropped 1 record(s)" in out
        assert "1 kept" in out


class TestImportFootprint:
    """Planning commands load the planner core only: no reproduction layer, no numpy."""

    def test_planning_commands_leave_the_reproduction_layer_out(self):
        import os
        import subprocess
        import sys
        import textwrap

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from repro.cli import main

            shape = ["--system", "a100", "--nodes", "2", "--axes", "8", "4"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["optimize", *shape, "--reduce", "0",
                             "--bytes", "{1 << 20}", "--max-program-size", "3"]) == 0
                assert main(["plan", *shape, "--reduction", "g:0:{1 << 20}",
                             "--reduction", "a:1:{1 << 20}"]) == 0
                assert main(["serve-batch", "--nodes", "2", "--max-program-size", "3",
                             "--query", "8,4:0:{1 << 20}"]) == 0
            # What `repro-cli serve` imports before it boots the daemon.
            import repro.corpus, repro.obs, repro.serve, repro.service
            loaded = ("numpy", "repro.runtime", "repro.evaluation.runner")
            print(sorted(name for name in loaded if name in sys.modules))
            """
        )
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert output == "[]"

"""Command-line interface.

``repro-cli`` exposes the main reproduction artefacts:

* ``repro-cli optimize`` — run P² for a system / parallelism shape and print
  the ranked strategies (the tool's primary use case).  ``--max-candidates``
  / ``--time-budget`` opt into the budgeted branch-and-bound search driver;
  the printed summary then includes the per-baseline speedups and search
  counters.
* ``repro-cli plan`` — choose one placement for several reductions at once
  (gradients + activations, each with its own payload and frequency).
* ``repro-cli emit`` — print the best strategy as XLA-style collective ops.
* ``repro-cli serve-batch`` — answer a batch of optimize queries through the
  planning service (plan cache + per-request stats).
* ``repro-cli serve`` — run the planning daemon: newline-delimited JSON over
  TCP and/or Unix sockets, bounded admission queue with shedding, per-tenant
  rate limits, cache warming on boot and SIGTERM drain (:mod:`repro.serve`).
* ``repro-cli cache stats | clear`` — inspect or clear an on-disk plan cache
  (``stats --json`` emits the telemetry snapshot schema).
* ``repro-cli stats`` — pretty-print a telemetry file written by
  ``--trace-out`` (Chrome trace or bare snapshot JSON).
* ``repro-cli table3 | table4 | table5`` — regenerate the paper tables.
* ``repro-cli figure11`` — regenerate the Figure 11 series.
* ``repro-cli sweep`` — run a scenario sweep: a named preset
  (``--preset smoke|paper-table2|gcp-scaleout|payload-ladder|appendix``), a
  grid file (``--grid grid.json``) or the full appendix by default, with
  JSONL streaming (``--out``/``--json``), checkpoint resume (``--resume``)
  and cache amortization (``--cache-dir``).

All commands accept ``--payload-scale`` so they can be run quickly on a
laptop; the default reproduces the paper's full payload sizes.

Observability: ``optimize``, ``serve-batch`` and ``sweep`` accept
``--trace-out FILE`` (enable the telemetry recorder, write a
Perfetto-loadable Chrome trace on exit), and the root parser accepts
``-v``/``-vv`` and ``--quiet`` to configure the ``repro`` stdlib logger.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.api import P2
from repro.cost.nccl import NCCLAlgorithm
from repro.errors import ReproError
from repro.evaluation.config import SystemKind, paper_payload_bytes
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest

if TYPE_CHECKING:
    from repro.evaluation.runner import SweepRunner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Reproduction of P2: parallelism placement and reduction strategy synthesis",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log INFO messages from the repro package; "
                             "repeat (-vv) for DEBUG")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log only errors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                       help="enable telemetry and write a Chrome trace-event "
                            "JSON file (Perfetto-loadable; also readable by "
                            "`repro-cli stats`) on exit")

    def add_corpus_argument(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", type=str, default=None, metavar="DIR",
                       help="plan-corpus directory: seed cold searches from "
                            "their nearest historical plans and ingest every "
                            "cold unbudgeted outcome back (lossless: "
                            "exhaustive seeded plans are bit-identical to "
                            "unseeded, only faster)")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--payload-scale", type=float, default=1.0,
                       help="scale the paper's payload (use e.g. 0.01 for quick runs)")
        p.add_argument("--quick", action="store_true",
                       help="use reduced configuration sets where applicable")

    def add_shape_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", choices=[s.value for s in SystemKind], default="a100")
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--axes", type=int, nargs="+", required=True,
                       help="parallelism axis sizes, e.g. --axes 8 4")
        p.add_argument("--algorithm", choices=[a.value for a in NCCLAlgorithm], default="ring")
        p.add_argument("--bytes", type=int, default=None,
                       help="payload bytes per device (default: the paper's 2^29*nodes floats)")

    def add_search_limit_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-matrices", type=int, default=None,
                       help="cap the number of parallelism matrices considered "
                            "(bounds the search on large topologies)")
        p.add_argument("--max-program-size", type=int, default=5,
                       help="program-size limit for strategy synthesis (default 5)")
        add_search_budget_arguments(p)

    def add_search_budget_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-candidates", type=int, default=None,
                       help="search budget: stop after considering this many "
                            "candidate strategies (enables lazy enumeration "
                            "and lossless lower-bound pruning)")
        p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                       help="search budget: stop enumerating candidates after "
                            "this much wall-clock time (best-so-far plan; "
                            "never cached)")
        p.add_argument("--shards", type=int, default=None,
                       help="partition the cold-path search across this many "
                            "worker processes sharing a branch-and-bound "
                            "incumbent (exhaustive results are identical to "
                            "--shards 1)")

    p_opt = sub.add_parser("optimize", help="synthesize and rank strategies for one shape")
    add_shape_arguments(p_opt)
    add_search_limit_arguments(p_opt)
    p_opt.add_argument("--reduce", type=int, nargs="+", default=[0],
                       help="reduction axis indices, e.g. --reduce 0 2")
    p_opt.add_argument("--top", type=int, default=10)
    p_opt.add_argument("--json", action="store_true",
                       help="emit the outcome (query + plan + provenance) as one JSON object")
    add_corpus_argument(p_opt)
    add_trace_out(p_opt)

    p_batch = sub.add_parser(
        "serve-batch",
        help="answer a batch of optimize queries through the planning service",
    )
    p_batch.add_argument("--system", choices=[s.value for s in SystemKind], default="a100")
    p_batch.add_argument("--nodes", type=int, default=2)
    add_search_limit_arguments(p_batch)
    p_batch.add_argument(
        "--query",
        action="append",
        default=None,
        metavar="AXES:REDUCE:BYTES[:ALGO]",
        help="one query, e.g. --query 8,4:0:67108864 or --query 2,16:1:1048576:tree "
             "(repeatable; omit BYTES for the paper payload)",
    )
    p_batch.add_argument(
        "--queries-file", type=str, default=None,
        help="JSON file with a list of PlanQuery dicts, or JSONL with one "
             "PlanQuery dict per line; the legacy "
             '{"axes": [8,4], "reduce": [0], "bytes": 67108864} shape is '
             "also accepted",
    )
    p_batch.add_argument("--cache-dir", type=str, default=None,
                         help="persist plans here (warm-starts later runs)")
    p_batch.add_argument("--top", type=int, default=1,
                         help="strategies to print per query")
    p_batch.add_argument("--json", action="store_true",
                         help="emit one JSON object per query (JSONL) instead of tables")
    add_corpus_argument(p_batch)
    add_trace_out(p_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the planning daemon (newline-delimited JSON over TCP/Unix sockets)",
    )
    p_serve.add_argument("--system", choices=[s.value for s in SystemKind], default="a100")
    p_serve.add_argument("--nodes", type=int, default=2)
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7411,
                         help="TCP port (0 binds an ephemeral port; discover it "
                              "via --ready-file)")
    p_serve.add_argument("--no-tcp", action="store_true",
                         help="disable the TCP listener (requires --unix)")
    p_serve.add_argument("--unix", type=str, default=None, metavar="PATH",
                         help="also listen on a Unix-domain socket at PATH")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="admission-queue bound; requests beyond it are "
                              "shed with a structured 'overloaded' reply")
    p_serve.add_argument("--max-line-bytes", type=int, default=None,
                         help="per-connection line-length bound (default 1 MiB)")
    p_serve.add_argument("--rate-limit", type=float, default=None, metavar="RPS",
                         help="per-tenant token-bucket rate limit (requests/s); "
                              "default: unlimited")
    p_serve.add_argument("--rate-burst", type=float, default=None,
                         help="token-bucket burst size (default max(1, rate))")
    p_serve.add_argument("--warm", type=str, default=None, metavar="FILE",
                         help="PlanQuery JSONL replayed through the plan cache "
                              "before accepting traffic")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds to wait for queued requests on shutdown")
    p_serve.add_argument("--cache-dir", type=str, default=None,
                         help="persist plans here (warm-starts later runs)")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="default shard width for cold-path planning "
                              "(queries carrying their own shards keep it)")
    p_serve.add_argument("--ready-file", type=str, default=None, metavar="FILE",
                         help='write {"host", "port", "pid", ...} JSON here once '
                              "listening (how scripts find an ephemeral port)")
    add_corpus_argument(p_serve)
    p_serve.add_argument("--no-corpus-warm", action="store_true",
                         help="skip replaying the corpus into the plan cache "
                              "on boot (corpus seeding/ingest still run)")
    add_trace_out(p_serve)

    p_cache = sub.add_parser("cache", help="inspect or clear an on-disk plan cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for cache_name, cache_help in [
        ("stats", "print entry count, size and fingerprints of a plan cache"),
        ("clear", "delete every entry of a plan cache"),
    ]:
        p = cache_sub.add_parser(cache_name, help=cache_help)
        p.add_argument("--cache-dir", type=str, required=True)
        if cache_name == "stats":
            p.add_argument("--json", action="store_true",
                           help="emit the stats as a telemetry snapshot "
                                "(same schema as `repro-cli stats --json`)")

    p_corpus = sub.add_parser(
        "corpus", help="inspect or maintain a plan corpus (see --corpus)"
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_corpus_stats = corpus_sub.add_parser(
        "stats", help="print record counts and size of a plan corpus"
    )
    p_corpus_stats.add_argument("--corpus", type=str, required=True, metavar="DIR")
    p_corpus_stats.add_argument("--json", action="store_true",
                                help="emit the stats as one JSON object")
    p_corpus_ingest = corpus_sub.add_parser(
        "ingest",
        help="ingest serialized outcomes (serve-batch --json output, or "
             "another corpus file) into a plan corpus",
    )
    p_corpus_ingest.add_argument("--corpus", type=str, required=True, metavar="DIR")
    p_corpus_ingest.add_argument("file", help="JSONL file of PlanOutcome/corpus records")
    p_corpus_compact = corpus_sub.add_parser(
        "compact",
        help="rewrite a corpus keeping the newest record per query, "
             "trimmed to --max-records",
    )
    p_corpus_compact.add_argument("--corpus", type=str, required=True, metavar="DIR")
    p_corpus_compact.add_argument("--max-records", type=int, default=None,
                                  help="override the stored-record bound for "
                                       "this compaction")

    p_stats = sub.add_parser(
        "stats", help="pretty-print a telemetry file written by --trace-out"
    )
    p_stats.add_argument("file",
                         help="a Chrome trace with embedded snapshot or a bare "
                              "snapshot JSON")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the canonical snapshot JSON instead of the "
                              "plain-text summary")

    p_plan = sub.add_parser(
        "plan", help="choose one placement for several reductions (one --reduction per reduction)"
    )
    add_shape_arguments(p_plan)
    p_plan.add_argument(
        "--reduction",
        action="append",
        required=True,
        metavar="NAME:AXES:BYTES[:WEIGHT]",
        help="e.g. --reduction gradients:0:268435456 --reduction activations:1:67108864:4",
    )

    p_emit = sub.add_parser("emit", help="emit the best strategy as XLA-style collective ops")
    add_shape_arguments(p_emit)
    p_emit.add_argument("--reduce", type=int, nargs="+", default=[0])
    p_emit.add_argument("--elements", type=int, default=None,
                        help="elements per device in the emitted module (default: bytes/4)")

    for name, helptext in [
        ("table3", "reproduce Table 3 (placement impact on AllReduce)"),
        ("table4", "reproduce Table 4 (synthesized strategies vs AllReduce)"),
        ("table5", "reproduce Table 5 (simulator accuracy)"),
        ("figure11", "reproduce the Figure 11 series"),
        ("sweep", "run a scenario sweep (a preset, a grid file or the appendix)"),
    ]:
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        if name == "sweep":
            from repro.evaluation.scenarios import preset_names

            # None (not 1.0) so an explicit "--payload-scale 1.0" is
            # distinguishable from "not given" and overrides preset defaults.
            p.set_defaults(payload_scale=None)
            p.add_argument("--preset", choices=preset_names(), default=None,
                           help="run a named scenario preset instead of the appendix")
            p.add_argument("--grid", type=str, default=None,
                           help="run the ScenarioGrid described by this JSON file")
            p.add_argument("--out", type=str, default=None,
                           help="stream one JSONL record per scenario to this file "
                                "(flushed per scenario: a resumable checkpoint)")
            p.add_argument("--resume", action="store_true",
                           help="skip scenarios already recorded in --out")
            p.add_argument("--cache-dir", type=str, default=None,
                           help="answer queries through a planning service with an "
                                "on-disk plan cache here (warm re-runs are lookups)")
            p.add_argument("--json", action="store_true",
                           help="print each scenario record as one JSON line")
            add_search_budget_arguments(p)
            add_corpus_argument(p)
            add_trace_out(p)
    return parser


def _run_optimize(args: argparse.Namespace) -> int:
    from repro.query import PlanQuery

    system = SystemKind(args.system)
    topology = system.build(args.nodes)
    bytes_per_device = args.bytes or paper_payload_bytes(args.nodes)
    query = PlanQuery(
        axes=ParallelismAxes(tuple(args.axes)),
        request=ReductionRequest(tuple(args.reduce)),
        bytes_per_device=bytes_per_device,
        algorithm=NCCLAlgorithm(args.algorithm),
        max_matrices=args.max_matrices,
        max_program_size=args.max_program_size,
        max_candidates=args.max_candidates,
        time_budget_s=args.time_budget,
        shards=1 if args.shards is None else args.shards,
    )
    corpus = None
    if args.corpus:
        from repro.corpus import PlanCorpus

        corpus = PlanCorpus(args.corpus)
    outcome = P2(topology, corpus=corpus).plan(query)
    if args.json:
        import json

        print(json.dumps(outcome.to_dict(), sort_keys=True))
        return 0
    plan = outcome.plan
    print(plan.describe(top_k=args.top))
    print()
    print(f"best strategy: {plan.best.describe()}")
    print(f"speedup over best-placed AllReduce: {plan.speedup_over_default():.2f}x")
    for name, speedup in sorted(outcome.baseline_speedups().items()):
        rendered = "inf" if speedup is None else f"{speedup:.2f}"
        print(f"speedup over {name} baseline (best placement): {rendered}x")
    if outcome.search is not None and (
        outcome.search.get("bound_rejected")
        or outcome.search.get("budget_stopped")
        or outcome.search.get("time_stopped")
        or outcome.search.get("seeds")
    ):
        print(
            f"search: {outcome.search['considered']} considered, "
            f"{outcome.search['bound_rejected']} bound-rejected, "
            f"{outcome.search['placements_pruned']} placements pruned"
        )
        incumbent_at = outcome.search.get("time_to_incumbent_s")
        if incumbent_at is not None:
            seeded = (
                " (seeded incumbent)"
                if outcome.search.get("seeded_incumbent")
                else ""
            )
            print(f"time to incumbent: {incumbent_at * 1e3:.1f} ms{seeded}")
    return 0


def _parse_batch_query(
    spec: str,
    default_bytes: int,
    max_matrices: Optional[int],
    max_program_size: Optional[int] = None,
):
    from repro.query import PlanQuery

    try:
        return PlanQuery.from_spec(
            spec,
            bytes_per_device=default_bytes,
            max_matrices=max_matrices,
            max_program_size=max_program_size,
        )
    except ReproError as error:
        raise SystemExit(f"bad --query {spec!r}: {error}")


def _load_batch_queries(
    path: str,
    default_bytes: int,
    max_matrices: Optional[int],
    max_program_size: Optional[int] = None,
):
    """Load PlanQuery dicts from a JSON list or a JSONL file (legacy shapes ok).

    Returns ``(queries, errors)``: a malformed line or entry becomes one
    structured error record (``{"error": "bad_json" | "bad_query", "line" |
    "index": N, "detail": ...}``) instead of aborting the whole batch, so
    one torn line in a big query file costs one query, not the run.
    """
    import json

    from repro.query import PlanQuery

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise SystemExit(f"{path}: not UTF-8 text: {error}")
    queries, errors, entries = [], [], []
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        # Not one JSON document: treat as JSONL, one query object per line.
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entries.append(({"line": number}, json.loads(line)))
            except (json.JSONDecodeError, RecursionError) as error:
                errors.append(
                    {"error": "bad_json", "line": number, "detail": str(error)}
                )
    else:
        if isinstance(document, dict):
            document = [document]  # a single query object is a one-entry batch
        if not isinstance(document, list):
            raise SystemExit(f"{path}: expected a JSON list of query objects")
        entries = [({"index": index}, entry) for index, entry in enumerate(document)]
    for where, entry in entries:
        try:
            queries.append(
                PlanQuery.from_dict(
                    entry,
                    bytes_per_device=default_bytes,
                    max_matrices=max_matrices,
                    max_program_size=max_program_size,
                )
            )
        except (ReproError, KeyError, TypeError, ValueError) as error:
            errors.append({"error": "bad_query", **where, "detail": str(error)})
    return queries, errors


def _run_serve_batch(args: argparse.Namespace) -> int:
    from repro.service import PlanCache, PlanningService

    system = SystemKind(args.system)
    topology = system.build(args.nodes)
    default_bytes = paper_payload_bytes(args.nodes)

    queries, line_errors = [], []
    if args.queries_file:
        file_queries, line_errors = _load_batch_queries(
            args.queries_file, default_bytes, args.max_matrices,
            args.max_program_size,
        )
        queries.extend(file_queries)
    for spec in args.query or []:
        queries.append(
            _parse_batch_query(
                spec, default_bytes, args.max_matrices, args.max_program_size
            )
        )
    if line_errors:
        # Structured per-line records in --json mode (mixed into the output
        # stream, distinguishable by the "error" key), human lines on stderr
        # otherwise; either way the exit code goes nonzero at the end.
        import json

        for record in line_errors:
            if args.json:
                print(
                    json.dumps({"file": args.queries_file, **record}, sort_keys=True),
                    flush=True,
                )
            else:
                where = (
                    f"line {record['line']}"
                    if "line" in record
                    else f"entry {record['index']}"
                )
                print(
                    f"{args.queries_file}: {where}: {record['error']}: "
                    f"{record['detail']}",
                    file=sys.stderr,
                )
    if not queries:
        if line_errors:
            print(
                f"{args.queries_file}: no valid queries "
                f"({len(line_errors)} malformed)",
                file=sys.stderr,
            )
            return 1
        raise SystemExit("serve-batch needs at least one --query or --queries-file")
    if (
        args.max_candidates is not None
        or args.time_budget is not None
        or args.shards is not None
    ):
        import dataclasses

        # Uniform search budget / shard width for the batch; a query file
        # that carries its own keeps it (the command line only fills gaps).
        queries = [
            dataclasses.replace(
                query,
                max_candidates=(
                    query.max_candidates
                    if query.max_candidates is not None
                    else args.max_candidates
                ),
                time_budget_s=(
                    query.time_budget_s
                    if query.time_budget_s is not None
                    else args.time_budget
                ),
                shards=(
                    query.shards
                    if query.shards != 1 or args.shards is None
                    else args.shards
                ),
            )
            for query in queries
        ]

    cache = PlanCache(directory=args.cache_dir)
    corpus = None
    if args.corpus:
        from repro.corpus import PlanCorpus

        corpus = PlanCorpus(args.corpus)
    service = PlanningService(topology, cache=cache, corpus=corpus)
    if args.json:
        import json

        # Stream: one line flushed per answered query, so a consumer (or
        # an interrupted run) sees every completed outcome immediately.
        for outcome in service.plan_stream(queries):
            print(json.dumps(outcome.to_dict(), sort_keys=True), flush=True)
        return 1 if line_errors else 0
    outcomes = service.plan_many(queries)
    for outcome in outcomes:
        print(f"query {outcome.query.describe()}")
        print(f"  {outcome.describe()}")
        for strategy in outcome.plan.top(args.top):
            print(f"  {strategy.describe()}")
    print()
    print(service.describe())
    return 1 if line_errors else 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import gc
    import json
    import os

    from repro.obs import Recorder, get_recorder
    from repro.serve import MAX_LINE_BYTES, DaemonConfig, PlanDaemon
    from repro.service import PlanCache, PlanningService

    if args.no_tcp and not args.unix:
        raise SystemExit("serve --no-tcp needs --unix")
    system = SystemKind(args.system)
    topology = system.build(args.nodes)
    # The daemon's `stats` op serves the live recorder; if --trace-out did
    # not already install one, give the daemon its own so stats/shed/tenant
    # counters exist regardless.
    recorder = get_recorder()
    if not recorder.enabled:
        recorder = Recorder()
    config = DaemonConfig(
        host=args.host,
        port=None if args.no_tcp else args.port,
        unix_path=args.unix,
        queue_limit=args.queue_limit,
        max_line_bytes=args.max_line_bytes or MAX_LINE_BYTES,
        rate_limit_per_s=args.rate_limit,
        rate_limit_burst=args.rate_burst,
        warm_path=args.warm,
        drain_timeout_s=args.drain_timeout,
        shards=args.shards,
        corpus_warm=not args.no_corpus_warm,
    )
    corpus = None
    if args.corpus:
        from repro.corpus import PlanCorpus

        corpus = PlanCorpus(args.corpus)

    async def amain() -> None:
        daemon = PlanDaemon(service, config, recorder=recorder)
        daemon.install_signal_handlers(asyncio.get_event_loop())
        await daemon.start()
        # What boot built (imports, corpus replay, --warm plans, the shape memo) lives as
        # long as this process: frozen, no gen-2 pass walks it into the request tail.
        gc.collect()
        gc.freeze()
        recorder.gauge("gc.frozen_objects", gc.get_freeze_count())
        listening = []
        ready = {"pid": os.getpid()}
        if daemon.tcp_address is not None:
            ready["host"], ready["port"] = daemon.tcp_address
            listening.append(f"{daemon.tcp_address[0]}:{daemon.tcp_address[1]}")
        if daemon.unix_address is not None:
            ready["unix_path"] = daemon.unix_address
            listening.append(daemon.unix_address)
        if args.ready_file:
            with open(args.ready_file, "w") as handle:
                json.dump(ready, handle)
        print(
            f"planning daemon (pid {ready['pid']}) serving "
            f"{system.value} x {args.nodes} nodes on {' + '.join(listening)}"
            + (f", warmed {daemon.warmed} queries" if daemon.warmed else "")
            + (
                f", pre-warmed {daemon.corpus_warmed} plans from the corpus"
                if daemon.corpus_warmed
                else ""
            ),
            file=sys.stderr,
        )
        await daemon.wait_closed()

    service = PlanningService(
        topology,
        cache=PlanCache(directory=args.cache_dir),
        recorder=recorder,
        corpus=corpus,
    )
    asyncio.run(amain())
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    from repro.service import PlanCache

    cache = PlanCache(directory=args.cache_dir)
    if args.cache_command == "stats":
        fingerprints = cache.disk_fingerprints()
        if getattr(args, "json", False):
            import json

            from repro.obs import RecorderSnapshot

            # The same snapshot schema the telemetry exporters speak, so one
            # consumer parses `repro-cli stats --json` and `cache stats --json`.
            snapshot = RecorderSnapshot(
                counters={
                    "cache.disk_entries": len(fingerprints),
                    "cache.disk_bytes": cache.disk_bytes(),
                },
            )
            print(json.dumps(snapshot.to_dict(), sort_keys=True))
            return 0
        print(f"cache at {args.cache_dir}: {len(fingerprints)} entries, "
              f"{cache.disk_bytes() / 1e3:.1f} kB")
        for fingerprint in fingerprints:
            print(f"  {fingerprint}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached plans from {args.cache_dir}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


def _run_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import PlanCorpus

    if args.corpus_command == "stats":
        corpus = PlanCorpus(args.corpus)
        stats = corpus.stats()
        if getattr(args, "json", False):
            import json

            print(json.dumps(stats, sort_keys=True))
            return 0
        print(
            f"corpus at {stats['path']}: {stats['records']} records "
            f"({stats['distinct_fingerprints']} queries, "
            f"{stats['distinct_payloads']} payloads), "
            f"{stats['total_bytes'] / 1e3:.1f} kB "
            f"(bound {stats['max_records']}), "
            f"{stats['skipped_lines']} unreadable or old-format lines skipped"
        )
        return 0
    if args.corpus_command == "ingest":
        import json

        corpus = PlanCorpus(args.corpus)
        ingested = skipped = malformed = 0
        try:
            handle = open(args.file, encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"cannot read {args.file}: {error}")
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    malformed += 1
                    continue
                if corpus.ingest_record(record):
                    ingested += 1
                else:
                    skipped += 1
        print(
            f"ingested {ingested} outcome(s) into {corpus.path} "
            f"({skipped} skipped: duplicates, budgeted or unusable"
            + (f"; {malformed} malformed line(s)" if malformed else "")
            + ")"
        )
        return 0
    if args.corpus_command == "compact":
        corpus = PlanCorpus(args.corpus)
        if args.max_records is not None:
            if args.max_records < 1:
                raise SystemExit("--max-records must be >= 1")
            corpus.max_records = args.max_records
        dropped = corpus.compact()
        print(
            f"compacted {corpus.path}: dropped {dropped} record(s), "
            f"{len(corpus)} kept"
        )
        return 0
    raise AssertionError(
        f"unhandled corpus command {args.corpus_command!r}"
    )  # pragma: no cover


def _run_stats(args: argparse.Namespace) -> int:
    from repro.obs import load_snapshot, render_summary

    try:
        snapshot = load_snapshot(args.file)
    except OSError as error:
        raise SystemExit(f"cannot read {args.file}: {error}")
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json:
        import json

        print(json.dumps(snapshot.to_dict(), sort_keys=True))
        return 0
    print(render_summary(snapshot, title=f"telemetry from {args.file}"))
    return 0


def _parse_weighted_reduction(spec: str, default_bytes: int):
    from repro.planner import WeightedReduction

    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise SystemExit(
            f"--reduction must look like NAME:AXES:BYTES[:WEIGHT], got {spec!r}"
        )
    name, axes_part, bytes_part = parts[0], parts[1], parts[2]
    weight = float(parts[3]) if len(parts) == 4 else 1.0
    axes = tuple(int(a) for a in axes_part.split(",") if a != "")
    payload = int(bytes_part) if bytes_part else default_bytes
    return WeightedReduction(
        name=name,
        request=ReductionRequest(axes),
        bytes_per_device=payload,
        weight=weight,
    )


def _run_plan(args: argparse.Namespace) -> int:
    from repro.planner import plan_placements

    system = SystemKind(args.system)
    topology = system.build(args.nodes)
    default_bytes = args.bytes or paper_payload_bytes(args.nodes)
    reductions = [
        _parse_weighted_reduction(spec, default_bytes) for spec in args.reduction
    ]
    plan = plan_placements(
        P2(topology),
        ParallelismAxes(tuple(args.axes)),
        reductions,
        algorithm=NCCLAlgorithm(args.algorithm),
    )
    print(plan.describe(top_k=10))
    print()
    best = plan.best
    print(f"best combined placement: {best.matrix.describe()}")
    for choice in best.choices:
        print(
            f"  {choice.reduction.name}: {choice.seconds * 1e3:.2f} ms with {choice.mnemonic} "
            f"({choice.speedup_over_all_reduce:.2f}x over AllReduce)"
        )
    return 0


def _run_emit(args: argparse.Namespace) -> int:
    from repro.compile import emit_xla_module

    from repro.query import PlanQuery

    system = SystemKind(args.system)
    topology = system.build(args.nodes)
    bytes_per_device = args.bytes or paper_payload_bytes(args.nodes)
    elements = args.elements or max(bytes_per_device // 4, 1)
    p2 = P2(topology)
    plan = p2.plan(
        PlanQuery(
            axes=ParallelismAxes(tuple(args.axes)),
            request=ReductionRequest(tuple(args.reduce)),
            bytes_per_device=bytes_per_device,
            algorithm=NCCLAlgorithm(args.algorithm),
        )
    ).plan
    best = plan.best
    print(f"// best strategy: {best.describe()}")
    module = emit_xla_module(best.program, element_count=elements)
    print(module.render())
    return 0


def _quick_runner(args: argparse.Namespace) -> SweepRunner:
    from repro.evaluation.runner import SweepRunner

    runs = 1 if args.quick else 3
    return SweepRunner(measurement_runs=runs)


def _sweep_scenarios(args: argparse.Namespace):
    """Scenario list plus runner measurement settings for ``repro-cli sweep``."""
    from repro.evaluation.config import appendix_configs
    from repro.evaluation.scenarios import (
        PRESETS,
        ScenarioGrid,
        scenarios_from_configs,
    )

    measure = True
    runs = 1 if args.quick else 3
    # The sweep subparser defaults --payload-scale to None, so a value here
    # is always user-given and overrides the preset/grid's own scale.
    explicit_scale = args.payload_scale
    if args.preset:
        entry = PRESETS[args.preset]
        scenarios = entry.scenarios(explicit_scale)
        measure = entry.measure_programs
        runs = 1 if args.quick else entry.measurement_runs
    elif args.grid:
        grid = ScenarioGrid.from_json_file(args.grid)
        if explicit_scale is not None:
            grid = grid.scaled(explicit_scale)
        scenarios = grid.expand()
    else:
        scenarios = scenarios_from_configs(
            appendix_configs(explicit_scale if explicit_scale is not None else 1.0)
        )
    if args.quick:
        scenarios = scenarios[:6]
    return scenarios, measure, runs


def _run_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.report import render_sweep_summary
    from repro.evaluation.runner import SweepRunner
    from repro.evaluation.tables import build_appendix_table

    if args.resume and not args.out:
        raise SystemExit("--resume needs --out (the JSONL checkpoint to resume)")
    scenarios, measure, runs = _sweep_scenarios(args)
    if not scenarios:
        raise SystemExit("the sweep selected no scenarios")
    if (
        args.max_candidates is not None
        or args.time_budget is not None
        or args.shards is not None
    ):
        import dataclasses

        # A uniform search budget across the sweep (part of each scenario's
        # query, so --resume correctly recomputes records whose budget changed).
        scenarios = [
            dataclasses.replace(
                scenario,
                max_candidates=args.max_candidates,
                time_budget_s=args.time_budget,
                shards=args.shards if args.shards is not None else scenario.shards,
            )
            for scenario in scenarios
        ]

    planner_factory = None
    if args.cache_dir is not None or args.corpus:
        from repro.service import PlanCache, PlanningService

        corpus = None
        if args.corpus:
            from repro.corpus import PlanCorpus

            # One corpus shared across the sweep's topologies is safe: each
            # service's seeder filters records by its own planning-context
            # fingerprint, and ingest dedupes by query fingerprint — so a
            # resumed sweep never double-ingests checkpointed scenarios.
            corpus = PlanCorpus(args.corpus)

        def planner_factory(topology):
            # One shared directory is safe: cache keys are fingerprints that
            # cover the topology, so entries never collide across systems.
            return PlanningService(
                topology,
                cache=PlanCache(directory=args.cache_dir),
                corpus=corpus,
            )

    def on_record(record):
        if args.json:
            print(json.dumps(record, sort_keys=True), flush=True)

    runner = SweepRunner(
        measurement_runs=runs,
        measure_programs=measure,
        planner_factory=planner_factory,
    )
    results = runner.run_stream(
        scenarios, out_path=args.out, resume=args.resume, on_record=on_record
    )

    if not args.json:
        from repro.obs import get_recorder

        recorder = get_recorder()
        snapshot = recorder.snapshot() if recorder.enabled else None
        print(render_sweep_summary(results, snapshot=snapshot))
        print()
        print(build_appendix_table(results).text)
    return 0


_LOG_HANDLER: Optional[logging.Handler] = None


def _configure_logging(args: argparse.Namespace) -> None:
    """Attach a stderr handler to the ``repro`` logger per -v/-q.

    The package itself only installs a NullHandler (library etiquette); the
    CLI is the application, so it decides verbosity: WARNING by default,
    INFO at ``-v``, DEBUG at ``-vv``, ERROR under ``--quiet``.  Idempotent
    across repeated :func:`main` calls (tests, embedding) — the previous
    CLI handler is replaced, never stacked.
    """
    global _LOG_HANDLER
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger("repro")
    if _LOG_HANDLER is not None:
        package_logger.removeHandler(_LOG_HANDLER)
    _LOG_HANDLER = handler
    package_logger.setLevel(level)
    package_logger.addHandler(handler)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)

    recorder = previous_recorder = None
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs import Recorder, get_recorder, set_recorder

        # Install before dispatch: services/drivers/simulators capture the
        # process recorder at construction time.
        previous_recorder = get_recorder()
        recorder = Recorder()
        set_recorder(recorder)
    try:
        return _dispatch(args)
    except ReproError as error:
        # A planning error is the caller's input, not a crash: one line and
        # argparse's usage-error exit code, no traceback.
        print(f"repro-cli: error: {error}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            from repro.obs import set_recorder, write_chrome_trace

            set_recorder(previous_recorder)
            path = write_chrome_trace(recorder.snapshot(), trace_out)
            print(f"telemetry trace written to {path}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "optimize":
        return _run_optimize(args)

    if args.command == "plan":
        return _run_plan(args)

    if args.command == "serve-batch":
        return _run_serve_batch(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "corpus":
        return _run_corpus(args)

    if args.command == "stats":
        return _run_stats(args)

    if args.command == "emit":
        return _run_emit(args)

    if args.command == "table3":
        from repro.evaluation.tables import build_table3

        artifact = build_table3(payload_scale=args.payload_scale)
        print(artifact.text)
        return 0

    if args.command == "table4":
        from repro.evaluation.tables import build_table4

        artifact = build_table4(payload_scale=args.payload_scale, runner=_quick_runner(args))
        print(artifact.text)
        return 0

    if args.command == "table5":
        from repro.evaluation.tables import build_table5

        artifact = build_table5(
            payload_scale=args.payload_scale, quick=args.quick, runner=_quick_runner(args)
        )
        print(artifact.text)
        return 0

    if args.command == "figure11":
        from repro.evaluation.config import figure11_configs
        from repro.evaluation.figures import build_figure11

        for config in figure11_configs(args.payload_scale):
            series = build_figure11(config, runner=_quick_runner(args))
            print(series.render())
            print()
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

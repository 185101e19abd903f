"""Reachability ledger: which functions under ``src/`` does no caller enter?

Drives every documented entry point in this one process with a call hook
installed, then prints, per module, the functions that no entry point
entered.  The entry points are:

* every ``repro-cli`` subcommand (``main([...])`` in-process), including
  ``sweep --grid``, ``plan``, ``corpus ingest|compact`` and ``cache clear``;
* a ``serve`` round: the daemon runs on the main thread while a client
  thread sends ``plan``, ``ping`` and ``stats`` (and the README's client
  block), then SIGTERMs the process so the daemon drains and returns;
* every ``examples/*.py`` ``main()``;
* the README's Python blocks, run in order in one namespace.

Functions entered only inside ``multiprocessing`` workers (sharded search
under the ``fork`` start method) are listed as worker-process code, not as
unentered.  Each unentered function is printed with its verdict from
``LEDGER`` below: why it stays although no entry point enters it.

The tool is a gate: it exits 1, after printing the report, when

* an unentered function has no verdict (printed as ``UNJUDGED``);
* a ``LEDGER`` entry names a function that an entry point entered or that
  no longer exists (a function entered only in a worker is neither: which
  process runs it depends on timing);
* a verdict breaks the rules of its kind (see ``LEDGER``): a
  ``test-only`` verdict, a ``library:`` verdict that names no referent
  outside ``tests/`` or names one that does not mention the function, or a
  ``protocol:`` verdict on a name that is not a dunder;
* an entry point fails: a ``repro-cli`` invocation exits non-zero or
  raises, the serve round or its client fails, or an example or a README
  block raises.

Stdlib only.  Run from anywhere (four to five minutes on 2 cores)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing.util
import os
import re
import signal
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Why a function stays in ``src/`` though no entry point enters it, keyed
#: by ``module:qualname``.  There are three kinds of verdict:
#:
#: * ``error path: <test>`` — a refusal or recovery path; the named test
#:   drives it.
#: * ``library: <referent> ...`` — a caller the entry points do not reach.
#:   The verdict names at least one referent outside ``tests/``: a ``.py``
#:   file under ``src/``, ``bench/``, ``benchmarks/`` or ``examples/``
#:   (which must refer to the function's name by an ``ast`` name or
#:   attribute outside the function's own ``def``), ``README.md`` or
#:   ``.github/workflows/ci.yml`` (which must mention the name).  Tests may
#:   be named too, but never alone.
#: * ``protocol: <protocol>; <test>`` — a dunder that a Python protocol
#:   calls (one of :data:`PROTOCOLS`); the named test checks it.
#:
#: A function that only its own unit tests call has no verdict: it goes,
#: together with those tests.  A reference implementation or a test harness
#: lives under ``tests/``.
PROTOCOLS = ("context manager", "immutability", "pickle", "sequence")

#: A referent a ``library:`` verdict may name, relative to the repository root.
REFERENT = re.compile(
    r"(?<![\w/.])(?:(?:src|bench|benchmarks|examples)/[\w/]+\.py"
    r"|README\.md|\.github/workflows/ci\.yml)"
)

LEDGER: Dict[str, str] = {
    # repro.analysis.serialization
    "repro.analysis.serialization:load_jsonl_results":
        "library: .github/workflows/ci.yml (sweep-smoke reads the --out records with it)",
    # repro.analysis.stats
    "repro.analysis.stats:SpeedupSummary.fraction_outperforming":
        "library: benchmarks/bench_appendix_full_sweep.py",
    "repro.analysis.stats:SpeedupSummary.describe":
        "library: benchmarks/bench_appendix_full_sweep.py",
    "repro.analysis.stats:_median": "library: src/repro/analysis/stats.py (summarize_results)",
    "repro.analysis.stats:summarize_results": "library: benchmarks/bench_appendix_full_sweep.py",
    # repro.cost.profile
    "repro.cost.profile:StepProfile.num_classes":
        "library: src/repro/cost/profile.py (SimulationProfile.num_classes)",
    "repro.cost.profile:SimulationProfile.num_classes":
        "library: bench/staged.py (the cost.profile_classes count)",
    # repro.hierarchy.levels
    "repro.hierarchy.levels:SystemHierarchy.__len__":
        "protocol: sequence; tests/test_hierarchy_levels.py::TestQueries::test_len_iter_getitem",
    "repro.hierarchy.levels:SystemHierarchy.__iter__":
        "protocol: sequence; tests/test_hierarchy_levels.py::TestQueries::test_len_iter_getitem",
    "repro.hierarchy.levels:SystemHierarchy.__getitem__":
        "protocol: sequence; tests/test_hierarchy_levels.py::TestQueries::test_len_iter_getitem",
    # repro.hierarchy.matrix
    "repro.hierarchy.matrix:count_naive_placements":
        "library: benchmarks/bench_placement_space.py",
    # repro.hierarchy.parallelism
    "repro.hierarchy.parallelism:ParallelismAxes.__len__":
        "protocol: sequence; "
        "tests/test_hierarchy_parallelism.py::TestParallelismAxes::test_iteration_and_indexing",
    "repro.hierarchy.parallelism:ParallelismAxes.__iter__":
        "protocol: sequence; "
        "tests/test_hierarchy_parallelism.py::TestParallelismAxes::test_iteration_and_indexing",
    "repro.hierarchy.parallelism:ParallelismAxes.__getitem__":
        "protocol: sequence; "
        "tests/test_hierarchy_parallelism.py::TestParallelismAxes::test_iteration_and_indexing",
    # repro.hierarchy.placement
    "repro.hierarchy.placement:DevicePlacement.__getstate__":
        "protocol: pickle; tests/test_semantics_transitions.py::TestNothingOutlivesTheSearch::"
        "test_a_placement_pickles_without_its_search_state",
    # repro.obs.recorder
    "repro.obs.recorder:Recorder.__getstate__":
        "protocol: pickle; tests/test_obs.py::TestRecorder::test_recorder_survives_pickling",
    "repro.obs.recorder:Recorder.__setstate__":
        "protocol: pickle; tests/test_obs.py::TestRecorder::test_recorder_survives_pickling",
    "repro.obs.recorder:NullRecorder.snapshot":
        "library: src/repro/serve/daemon.py (the stats op, on a PlanDaemon built "
        "without a recorder)",
    # repro.query
    "repro.query:PlanOutcome.best": "library: benchmarks/bench_telemetry_overhead.py",
    "repro.query:Planner.plan":
        "library: src/repro/evaluation/runner.py (SweepRunner plans through a Planner; "
        "the Protocol stub itself never runs)",
    "repro.query:Planner.plan_many":
        "library: src/repro/planner/multi.py (plan_with plans through a Planner; "
        "the Protocol stub itself never runs)",
    # repro.runtime.cluster
    "repro.runtime.cluster:SimCluster.__iter__":
        "protocol: sequence; tests/test_runtime_device_cluster.py::TestSimCluster::test_iteration",
    # repro.runtime.executor
    "repro.runtime.executor:CollectiveExecutor.reduce":
        "library: src/repro/runtime/executor.py (_DISPATCH, for Reduce steps)",
    "repro.runtime.executor:CollectiveExecutor.broadcast":
        "library: src/repro/runtime/executor.py (_DISPATCH, for Broadcast steps)",
    # repro.search.sharded
    "repro.search.sharded:_check_liveness":
        "error path: tests/test_search_driver.py::TestShardedSearch::test_a_shard_that_dies_without_a_message_is_a_search_error",
    # repro.search.source
    "repro.search.source:CandidateSource.entries":
        "library: src/repro/search/driver.py (the driver pulls every source through it; "
        "the Protocol stub itself never runs)",
    # repro.semantics.collectives
    "repro.semantics.collectives:step_error":
        "error path: tests/test_semantics_packed_oracle.py::TestStepKernelAgainstOracle::test_step_matches_the_oracle_group_by_group",
    # repro.semantics.state
    "repro.semantics.state:DeviceState.__new__":
        "protocol: pickle (unpickling goes through the validating constructor); "
        "tests/test_semantics_packed_oracle.py::TestPackedState::test_round_trips",
    "repro.semantics.state:DeviceState.__setattr__":
        "protocol: immutability; "
        "tests/test_semantics_packed_oracle.py::TestPackedState::test_states_are_immutable",
    "repro.semantics.state:DeviceState.__delattr__":
        "protocol: immutability; "
        "tests/test_semantics_packed_oracle.py::TestPackedState::test_states_are_immutable",
    "repro.semantics.state:DeviceState.__reduce__":
        "protocol: pickle; tests/test_semantics_packed_oracle.py::TestPackedState::test_round_trips",
    "repro.semantics.state:DeviceState.rows":
        "library: src/repro/semantics/state.py (DeviceState.__reduce__)",
    "repro.semantics.state:DeviceState.non_empty_rows":
        "library: src/repro/semantics/collectives.py (step_error's unequal-rows message)",
    "repro.semantics.state:StateContext.__iter__":
        "protocol: sequence; "
        "tests/test_semantics_goals.py::TestGoalContext::test_all_reduce_goal_is_full_matrix",
    # repro.serve.daemon
    "repro.serve.daemon:TokenBucket.retry_after_s":
        "error path: tests/test_serve_daemon.py::TestServingPolicy::test_rate_limit_refusal_shape",
    # repro.serve.protocol
    "repro.serve.protocol:error_reply":
        "error path: tests/test_serve_daemon.py::TestDaemonEndToEnd::test_malformed_line_keeps_connection_alive",
    # repro.service.cache
    "repro.service.cache:CacheStats.demote_hit":
        "error path: tests/test_service_engine.py::TestPlanningService::test_recovers_from_semantically_corrupt_cache_entry",
    "repro.service.cache:PlanCache.discard":
        "error path: tests/test_service_engine.py::TestPlanningService::test_recovers_from_semantically_corrupt_cache_entry",
    # repro.synthesis.hierarchy
    "repro.synthesis.hierarchy:SynthesisHierarchy._virtual_radix":
        "library: src/repro/synthesis/hierarchy.py (virtual_to_position_digits)",
    "repro.synthesis.hierarchy:SynthesisHierarchy.virtual_to_position_digits":
        "library: src/repro/synthesis/hierarchy.py (goal, for the whole-matrix variants)",
    "repro.synthesis.hierarchy:_level_name":
        "library: src/repro/synthesis/hierarchy.py (the non-default hierarchy variants)",
    # repro.synthesis.lowering
    "repro.synthesis.lowering:LoweredStep.devices":
        "library: src/repro/synthesis/lowering.py (LoweredStep.min_device and max_device)",
    "repro.synthesis.lowering:LoweredStep.min_device":
        "library: src/repro/synthesis/lowering.py (LoweredProgram.__post_init__, "
        "on an unpickled step)",
    "repro.synthesis.lowering:LoweredStep.max_device":
        "library: src/repro/synthesis/lowering.py (LoweredProgram.__post_init__, "
        "on an unpickled step)",
    "repro.synthesis.lowering:LoweredStep.__getstate__":
        "protocol: pickle; tests/test_semantics_shared_sweep.py::TestNoStateOutlivesTheSweep::"
        "test_programs_hold_floats_not_states",
    "repro.synthesis.lowering:LoweredProgram.__len__":
        "protocol: sequence; tests/test_synthesis_lowering.py::TestLoweredProgramValidation::"
        "test_iteration",
    "repro.synthesis.lowering:LoweredProgram.__iter__":
        "protocol: sequence; tests/test_synthesis_lowering.py::TestLoweredProgramValidation::"
        "test_iteration",
    # repro.synthesis.pipeline
    "repro.synthesis.pipeline:PlacementCandidate.num_programs":
        "library: benchmarks/bench_synthesis_time.py",
    "repro.synthesis.pipeline:synthesize_all": "library: benchmarks/bench_synthesis_time.py",
    # repro.utils.memo
    "repro.utils.memo:BoundedMemo.discard":
        "error path: tests/test_service_cache.py::TestDiskTier::test_discard_drops_one_entry_from_both_tiers",
    "repro.utils.memo:BoundedMemo.__reduce__":
        "protocol: pickle (a memo pickles empty); "
        "tests/test_memo.py::TestBoundedMemo::test_a_subclass_pickles_as_itself",
    "repro.utils.memo:_empty_memo": "library: src/repro/utils/memo.py (BoundedMemo.__reduce__)",
    # repro.utils.mixed_radix
    "repro.utils.mixed_radix:MixedRadix.__len__":
        "protocol: sequence; tests/test_utils_mixed_radix.py::TestMixedRadixClass::test_iteration_order",
    "repro.utils.mixed_radix:MixedRadix.__iter__":
        "protocol: sequence; tests/test_utils_mixed_radix.py::TestMixedRadixClass::test_iteration_order",
}

Key = Tuple[str, int]  # (absolute filename, first line of the code object)

_seen: Set[Key] = set()
_worker_dir: Optional[str] = None


def _hook(frame, event, arg):
    code = frame.f_code
    _seen.add((code.co_filename, code.co_firstlineno))
    return None


class _ForkMarker:
    """Weak-referenceable anchor for ``multiprocessing.util.register_after_fork``."""


_FORK_MARKER = _ForkMarker()


def _after_fork(_marker) -> None:
    # Runs in a freshly forked multiprocessing child: start from an empty
    # set and write what the child entered when its finalizers run.  A
    # queue's feeder thread pickles what the child put on it until the
    # queue's own finalizer (exitpriority -5) joins that thread, so the dump
    # runs after it: an earlier dump would miss, depending on timing, the
    # pickling hooks the feeder thread runs.
    _seen.clear()
    multiprocessing.util.Finalize(None, _dump_worker, exitpriority=-10)


def _dump_worker() -> None:
    path = Path(_worker_dir) / f"worker-{os.getpid()}.json"
    path.write_text(json.dumps(sorted(_seen)))


def _worker_keys() -> Set[Key]:
    keys: Set[Key] = set()
    for path in Path(_worker_dir).glob("worker-*.json"):
        keys.update((name, line) for name, line in json.loads(path.read_text()))
    return keys


# ---------------------------------------------------------------------------
# The function inventory
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Function:
    """One ``def`` under ``src/``: its module, lines and enclosing function."""

    module: str
    qualname: str
    path: str
    first: int
    last: int
    parent: Optional["Function"]

    @property
    def key(self) -> Key:
        return (self.path, self.first)

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def inventory(src: Path = SRC) -> List[Function]:
    """Every ``def`` under ``src`` (methods and nested functions included).

    A code object's first line is its first decorator's line, so that is
    the line a function is matched on.
    """
    functions: List[Function] = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).with_suffix("")
        parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str, parent: Optional[Function]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    function = Function(module, prefix + child.name, str(path), first,
                                        child.end_lineno, parent)
                    functions.append(function)
                    visit(child, f"{prefix}{child.name}.<locals>.", function)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return functions


def unentered(functions: Sequence[Function], entered: Set[Key]) -> List[Function]:
    """Functions whose code never ran, minus those inside an unentered function.

    A nested ``def`` cannot run unless its enclosing function did, so only
    the outermost unentered function is reported (its lines cover the rest).
    """
    missed = [f for f in functions if f.key not in entered]
    missed_keys = {f.key for f in missed}
    return [
        f for f in missed
        if f.parent is None or f.parent.key not in missed_keys
    ]


def package_of(function: Function) -> str:
    parts = function.module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

SHAPE = ["--system", "a100", "--nodes", "2", "--axes", "8", "4"]
SMALL = SHAPE + ["--max-program-size", "3"]
QUERY = "8,4:0:33554432"


def cli_invocations(tmp: Path) -> List[Tuple[List[str], Optional[Path]]]:
    """Every ``repro-cli`` subcommand but ``serve`` (see :func:`serve_round`).

    Each entry is ``(argv, path)``: when ``path`` is set, the invocation's
    stdout is saved there for a later invocation to read.
    """
    corpus, cache, trace = str(tmp / "corpus"), str(tmp / "cache"), str(tmp / "trace.json")
    outcomes, snapshot = tmp / "outcomes.jsonl", tmp / "snapshot.json"
    grid, sweep_out, queries = tmp / "grid.json", tmp / "sweep.jsonl", tmp / "queries.jsonl"
    queries.write_text(json.dumps({"axes": [2, 16], "reduce": [1], "bytes": 1 << 20}) + "\n")
    grid.write_text(json.dumps({
        "name": "reach", "systems": ["a100"], "node_counts": [2],
        "shapes": [[8, 4]], "workloads": [[0], [1]], "payload_scales": [1.0],
        "algorithms": ["ring", "tree"], "max_program_size": 3,
    }))
    invocations: list = [
        ["optimize", *SMALL, "--reduce", "0", "--bytes", "33554432"],
        ["optimize", *SMALL, "--reduce", "1", "--bytes", "16777216", "--json",
         "--corpus", corpus, "--trace-out", trace],
        ["optimize", *SMALL, "--reduce", "1", "--bytes", "33554432", "--corpus", corpus],
        ["optimize", *SMALL, "--reduce", "0", "--max-candidates", "40", "--time-budget", "30"],
        ["optimize", *SMALL, "--reduce", "0", "--bytes", "33554432", "--shards", "2",
         "--trace-out", str(tmp / "shards.json")],
        ["optimize", *SMALL, "--reduce", "0", "--shards", "2", "--max-candidates", "40"],
        ["plan", *SHAPE, "--reduction", "gradients:0:268435456",
         "--reduction", "activations:1:67108864:4"],
        ["emit", *SHAPE, "--reduce", "0", "--bytes", "33554432"],
        ["serve-batch", "--nodes", "2", "--max-program-size", "3", "--query", QUERY,
         "--query", QUERY, "--query", "8,4:0:67108864:tree", "--queries-file", str(queries),
         "--cache-dir", cache, "--trace-out", trace],
        (["serve-batch", "--nodes", "2", "--max-program-size", "3", "--query", QUERY,
          "--cache-dir", cache, "--json", "--corpus", corpus], outcomes),
        ["cache", "stats", "--cache-dir", cache],
        ["cache", "stats", "--cache-dir", cache, "--json"],
        ["cache", "clear", "--cache-dir", cache],
        ["corpus", "stats", "--corpus", corpus],
        ["corpus", "stats", "--corpus", corpus, "--json"],
        ["corpus", "ingest", "--corpus", corpus, str(outcomes)],
        ["corpus", "compact", "--corpus", corpus, "--max-records", "2"],
        ["stats", trace],
        (["stats", trace, "--json"], snapshot),
        ["stats", str(snapshot)],
        ["table3", "--payload-scale", "0.01"],
        ["table4", "--payload-scale", "0.01", "--quick"],
        ["table5", "--payload-scale", "0.01", "--quick"],
        ["figure11", "--payload-scale", "0.01", "--quick"],
        ["sweep", "--preset", "smoke", "--json", "--out", str(sweep_out), "--cache-dir", cache],
        ["sweep", "--preset", "smoke", "--out", str(sweep_out), "--resume"],
        ["sweep", "--grid", str(grid), "--payload-scale", "0.01", "--corpus", corpus,
         "--trace-out", trace],
        ["sweep", "--preset", "paper-table2", "--quick"],
        ["sweep", "--preset", "gcp-scaleout", "--quick"],
        ["sweep", "--preset", "payload-ladder", "--quick", "--json"],
        ["sweep", "--preset", "appendix", "--quick", "--payload-scale", "0.01"],
        ["sweep", "--payload-scale", "0.01", "--quick"],
    ]
    return [entry if isinstance(entry, tuple) else (entry, None) for entry in invocations]


def readme_blocks(readme: Path = ROOT / "README.md") -> List[str]:
    return re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)


def run_cli(argv: Sequence[str], capture: io.StringIO) -> int:
    from repro.cli import main

    with contextlib.redirect_stdout(capture), contextlib.redirect_stderr(capture):
        return main(list(argv))


def serve_round(tmp: Path, client_blocks: Sequence[str], namespace: dict,
                log: Callable[[str, str, float], None]) -> None:
    """``repro-cli serve`` on this (main) thread; a client thread drives it."""
    ready = tmp / "ready.json"
    warm = tmp / "warm.jsonl"
    warm.write_text(json.dumps({"axes": [8, 4], "reduce": [0], "bytes": 1 << 20,
                                "max_program_size": 3}) + "\n")
    problems: List[str] = []

    def client() -> None:
        from repro.query import PlanQuery
        from repro.serve import PlanClient

        try:
            deadline = time.monotonic() + 60
            while not ready.exists() or not ready.read_text():
                if time.monotonic() > deadline:
                    raise TimeoutError("serve never wrote its ready file")
                time.sleep(0.05)
            info = json.loads(ready.read_text())
            with PlanClient(host=info["host"], port=info["port"]) as c:
                query = PlanQuery(axes=(8, 4), request=(0,), bytes_per_device=1 << 20,
                                  max_program_size=3)
                c.plan(query, tenant="alpha")
                c.plan(query, tenant="beta", include_plan=True)
                c.ping()
                c.stats()
            namespace["port"] = info["port"]
            for block in client_blocks:
                exec(compile(block, "README.md", "exec"), namespace)
        except BaseException as error:  # reported, never raised on this thread
            problems.append(repr(error))
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    thread = threading.Thread(target=client, name="reach-client")
    capture = io.StringIO()
    start = time.perf_counter()
    thread.start()
    status = run_cli(["serve", "--nodes", "2", "--port", "0", "--ready-file", str(ready),
                      "--unix", str(tmp / "serve.sock"), "--rate-limit", "1000",
                      "--warm", str(warm), "--cache-dir", str(tmp / "serve-cache"),
                      "--corpus", str(tmp / "corpus"), "--trace-out", str(tmp / "serve.json")],
                     capture)
    thread.join()
    detail = f"exit {status}" + (f"; client: {problems[0]}" if problems else "")
    log("serve round", detail, time.perf_counter() - start)


def drive(tmp: Path, log: Callable[[str, str, float], None]) -> None:
    os.environ["HOME"] = str(tmp)  # README blocks write under ~/.cache
    for argv, saved in cli_invocations(tmp):
        capture = io.StringIO()
        start = time.perf_counter()
        try:
            status = f"exit {run_cli(argv, capture)}"
        except SystemExit as error:
            status = f"exit {0 if error.code is None else error.code}"
        except Exception as error:  # reported, then the next entry point runs
            status = f"raised {error!r}"
        if saved is not None:
            saved.write_text(capture.getvalue())
        if status != "exit 0":
            sys.stderr.write(capture.getvalue()[-2000:])
        log("repro-cli " + " ".join(argv), status, time.perf_counter() - start)

    namespace: dict = {"__name__": "__readme__"}
    from repro.topology import a100_system

    namespace["topology"] = a100_system(num_nodes=2)
    blocks = readme_blocks()
    client_blocks = [b for b in blocks if "PlanClient" in b]
    for number, block in enumerate(blocks, start=1):
        if block in client_blocks:
            continue
        capture = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(capture):
                exec(compile(block, "README.md", "exec"), namespace)
            status = "ok"
        except Exception as error:  # reported as a failure, then the next block runs
            status = f"raised {error!r}"
        log(f"README block {number}", status, time.perf_counter() - start)

    serve_round(tmp, client_blocks, namespace, log)

    import importlib.util

    for path in sorted((ROOT / "examples").glob("*.py")):
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        capture = io.StringIO()
        start = time.perf_counter()
        try:
            spec.loader.exec_module(module)
            with contextlib.redirect_stdout(capture), contextlib.redirect_stderr(capture):
                module.main()
            status = "ok"
        except Exception as error:
            status = f"raised {error!r}"
        log(f"examples/{path.name}", status, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def mentions(path: Path, function: Function) -> bool:
    """Whether ``path`` refers to ``function``'s name outside its own ``def``.

    A ``.py`` file must hold an ``ast`` name or attribute node of that name;
    any other file must contain the name as a word.
    """
    name = function.qualname.rsplit(".", 1)[-1]
    text = path.read_text()
    if path.suffix != ".py":
        return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text) is not None
    own = path.resolve() == Path(function.path).resolve()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.Name):
            found = node.id
        else:
            continue
        if found == name and not (own and function.first <= node.lineno <= function.last):
            return True
    return False


def breach(function: Function, verdict: str) -> Optional[str]:
    """What is wrong with ``function``'s verdict, or ``None`` if nothing is."""
    kind, _, reason = verdict.partition(": ")
    name = function.qualname.rsplit(".", 1)[-1]
    if kind == "error path":
        return None
    if kind == "protocol":
        if not (name.startswith("__") and name.endswith("__")):
            return "protocol verdict on a name that is not a dunder"
        if not reason.startswith(PROTOCOLS):
            return "protocol verdict names no known protocol"
        return None
    if kind != "library":
        return "unknown verdict kind"
    if "test-only" in verdict:
        return "test-only verdict"
    referents = REFERENT.findall(verdict)
    if not referents:
        return "library verdict names only tests"
    for referent in referents:
        path = ROOT / referent
        if not path.is_file() or not mentions(path, function):
            return f"library verdict names {referent}, which does not mention {name}"
    return None


def report(functions: Sequence[Function], entered: Set[Key], worker: Set[Key],
           out=sys.stdout) -> List[str]:
    """Print the ledger; return the problems that fail it (empty when it is clean).

    A problem is an unentered function without a verdict, a ledger entry for
    a function that was entered or is gone, or a verdict that breaks the
    rules of its kind (:func:`breach`).  Worker-only code counts as neither
    entered nor unentered.
    """
    missed = unentered(functions, entered)
    in_workers = [f for f in missed if f.key in worker]
    missed = [f for f in missed if f.key not in worker]
    by_module: Dict[str, List[Function]] = defaultdict(list)
    for function in missed:
        by_module[function.module].append(function)
    per_package: Dict[str, int] = defaultdict(int)
    problems: List[str] = []
    for module in sorted(by_module):
        entries = by_module[module]
        print(f"\n{module}  ({sum(f.lines for f in entries)} lines)", file=out)
        for function in entries:
            verdict = LEDGER.get(function.name)
            if verdict is None:
                problems.append(f"unjudged: {function.name}")
            print(f"  {function.first:>5}  {function.lines:>4}  {function.qualname}"
                  f"  -- {verdict or 'UNJUDGED'}", file=out)
            per_package[package_of(function)] += function.lines
    if in_workers:
        print("\nentered only in worker processes:", file=out)
        for function in in_workers:
            print(f"  {function.name}  ({function.lines} lines)", file=out)
    stale = sorted(set(LEDGER) - {f.name for f in missed + in_workers})
    if stale:
        print("\nledger entries for functions that were entered or are gone:", file=out)
        for name in stale:
            print(f"  {name}", file=out)
    problems += [f"stale ledger entry: {name}" for name in stale]
    for function in sorted(missed + in_workers, key=lambda f: f.name):
        problem = function.name in LEDGER and breach(function, LEDGER[function.name])
        if problem:
            problems.append(f"{problem}: {function.name}")
    kinds: Dict[str, List[Function]] = defaultdict(list)
    for function in missed:
        kinds[LEDGER.get(function.name, "UNJUDGED").split(":")[0]].append(function)
    print("\nverdicts:", file=out)
    for kind in sorted(kinds):
        entries = kinds[kind]
        print(f"  {kind:<20} {len(entries):>4} functions {sum(f.lines for f in entries):>5} lines",
              file=out)
    print("\nunentered lines per package:", file=out)
    for package, lines in sorted(per_package.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {package:<12} {lines:>5}", file=out)
    total = sum(per_package.values())
    unjudged = len(kinds.get("UNJUDGED", ()))
    print(f"  {'total':<12} {total:>5}  in {len(missed)} functions; {unjudged} unjudged",
          file=out)
    return problems


def main() -> int:
    """Drive the entry points, print the ledger; 1 if anything fails it."""
    global _worker_dir

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        _worker_dir = str(Path(tmp) / "workers")
        os.mkdir(_worker_dir)
        multiprocessing.util.register_after_fork(_FORK_MARKER, _after_fork)

        def log(what: str, status: str, seconds: float) -> None:
            print(f"{seconds:7.1f}s  {what:<28} {status}", file=sys.stderr, flush=True)
            if status not in ("ok", "exit 0"):
                failed.append(f"entry point failed: {what}: {status}")

        previous_home = os.environ.get("HOME")
        threading.settrace(_hook)
        sys.settrace(_hook)
        try:
            drive(Path(tmp), log)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            if previous_home is not None:
                os.environ["HOME"] = previous_home
        worker = _worker_keys() - _seen
        entered = set(_seen)
    print(f"driven in {time.perf_counter() - start:.0f}s", file=sys.stderr)
    problems = failed + report(inventory(), entered, worker)
    if problems:
        print(f"\nreach: FAILED ({len(problems)} problems)", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\nreach: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

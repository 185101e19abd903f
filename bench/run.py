#!/usr/bin/env python3
"""The plan-request latency benchmark: one command, every metric by name.

Driver form (one workload, one pass; the last stdout line is the result)::

    python3 bench/run.py --workload cold_rows --seed 0 --seconds 20 --trace 0

``--trace 0`` is the untraced pass and prints every end-to-end metric;
``--trace 1`` is the traced pass (staged replay, rate ladder, probes) and
prints every per-layer metric and writes ``bench/out/trace-<workload>.json``.

Without ``--workload`` the four workloads run one after the other, each pass
in its own fresh interpreter, and ``bench/out/result.json`` collects them::

    python3 bench/run.py [--seed N] [--repeat K] [--out DIR]

``--list`` prints every name the benchmark emits; ``--update-reference``
re-records ``reference/digests.json``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports are set-up too

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import names  # noqa: E402

# Set-up is this interpreter's (or the daemon's) CPU-bound imports and plans,
# and the driver gates its median: it is given at the reference speed too,
# from one calibration loop here and one when set-up ends.
_SPEED = harness.SpeedMeter()

if not (harness.SRC / "repro").is_dir():
    sys.exit(f"bench/run.py: {harness.SRC}/repro not found — there is no program to measure")
sys.path.insert(0, str(harness.SRC))


def load_workload(name: str):
    """Import lazily: importing ``repro`` is part of the measured set-up."""
    if name == "daemon_open_loop":
        from openloop import DaemonOpenLoop

        return DaemonOpenLoop()
    import inprocess

    return {"cold_rows": inprocess.ColdRows, "payload_ladder": inprocess.PayloadLadder,
            "warm_cache": inprocess.WarmCache}[name]()


def child_setup_seconds(name: str, seed: int) -> float:
    """One more set-up of the same workload, in a fresh interpreter."""
    done = subprocess.run(
        [harness.python_exe(), str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed in a child: {done.stderr[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_workload(args: argparse.Namespace) -> int:
    name, seed, trace = args.workload, args.seed, args.trace
    tmp = Path(args.out) / "tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        workload = load_workload(name)
        workload.setup(tmp, seed)
        raw_setup = time.perf_counter() - _T0
        own_setup = raw_setup / _SPEED.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        from checks import Checker

        checker = Checker()
        if trace:
            measured = workload.trace(seed, args.seconds, checker)
        else:
            # Set up again in fresh interpreters, before anything is timed,
            # so setup_s is a median and not one cold-start sample.
            setups = [own_setup] + [
                child_setup_seconds(name, seed) for _ in range(workload.setup_repeats - 1)
            ]
            measured = workload.measure(seed, args.seconds, checker)
            measured.metrics["setup_s"] = statistics.median(setups)
            measured.detail.append(
                "setup_s is the median of " + ", ".join(f"{x:.3f}" for x in setups)
                + f" (at the reference speed; this interpreter's raw wall was {raw_setup:.3f})"
            )
        workload.teardown(checker)
        workload = None
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)

    expected = names.PER_LAYER if trace else names.END_TO_END
    if trace:
        share = checker.failed / checker.attempted if checker.attempted else 0.0
        measured.metrics["e2e.failed_share"] = share
    unknown = set(measured.metrics) - set(expected)
    if unknown:
        raise RuntimeError(f"{name} emitted unregistered metrics: {sorted(unknown)}")
    if not trace and set(expected) - set(measured.metrics):
        raise RuntimeError(f"{name} left out {sorted(set(expected) - set(measured.metrics))}")
    # A layer this workload never crosses did no work: its metrics read zero.
    metrics = {
        metric: {"value": float(measured.metrics.get(metric, 0.0)), "unit": unit}
        for metric, unit in expected.items()
    }

    print(f"# {name} seed={seed} seconds={args.seconds:g} trace={trace}")
    for line in measured.detail:
        print(f"# {line}")
    for problem in checker.problems:
        print(f"# FAILED: {problem}")
    for metric, entry in metrics.items():
        if trace and metric not in measured.metrics:
            continue
        print(f"{metric:42s} {entry['value']:14.6g} {entry['unit']}")
    if trace and measured.trace is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace-{name}.json").write_text(json.dumps(measured.trace))
        print(f"# trace written to {out / f'trace-{name}.json'}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------------------- #
# All workloads, each pass in a fresh interpreter
# --------------------------------------------------------------------------- #
def run_all(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else harness.load_contract()["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    passes = [(0, args.seed + i) for i in range(args.repeat)] + [(1, args.seed)]
    runs = [
        harness.run_pass(name, seed, seconds, trace, out)
        for name in names.WORKLOADS
        for trace, seed in passes
    ]
    record = harness.result_record(runs, args.seed, seconds)
    (out / "result.json").write_text(json.dumps(record, indent=1))
    failed = sum(run["failed"] for run in runs)
    print(f"# wrote {out / 'result.json'}: {len(runs)} passes, {failed} failed operations")
    return 1 if failed else 0


def list_names() -> int:
    for name in names.WORKLOADS:
        print(f"workload {name}")
    for name, unit in names.END_TO_END.items():
        print(f"end_to_end {name} {unit}")
    for name, unit in names.PER_LAYER.items():
        print(f"per_layer {name} {unit}")
    return 0


def update_reference() -> int:
    """Re-record the expected digests — only against an unchanged ``src/``.

    The reference says what the program answered at a recorded commit; it is
    evidence only while nobody can re-bless it after changing the program.
    A change that alters plans on purpose edits the recorded commit by hand.
    """
    import workloads
    from checks import REFERENCE, headline_of

    from repro.api import P2

    recorded = json.loads(REFERENCE.read_text())["commit"] if REFERENCE.exists() else "HEAD"
    diff = subprocess.run(
        ["git", "diff", "--quiet", recorded, "--", "src"], cwd=harness.ROOT
    )
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "src"],
        cwd=harness.ROOT, capture_output=True, text=True,
    )
    if diff.returncode != 0 or untracked.stdout.strip():
        sys.exit(f"refusing: src/ differs from the recorded commit {recorded}")
    entries = {}
    tools = {}
    for target in workloads.reference_targets():
        tool = tools.setdefault((target.system, target.nodes), P2(target.topology))
        plan = tool.plan(target.query).plan
        entries[target.key] = {
            "digest": harness.plan_digest(plan),
            **headline_of(plan),
            "speedup_over_default": plan.speedup_over_default(),
        }
        print(f"{entries[target.key]['digest'][:16]}  {target.key[:100]}")
    commit = harness.git_commit() if recorded == "HEAD" else recorded
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps({"commit": commit, "entries": entries}, indent=1) + "\n")
    print(f"# recorded {len(entries)} queries at {commit}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one pass measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(harness.OUT),
                        help="where result.json, traces and temporary files go")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced passes per workload (seeds seed, seed+1, ...)")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.list:
        return list_names()
    if args.update_reference:
        return update_reference()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(harness.load_contract()["run_seconds"])
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code must agree within the bounds.

    python3 bench/aa_check.py [--runs 10] [--seed 100] [--workload NAME ...]
    python3 bench/aa_check.py --read A.json B.json

Each set makes ``--runs`` untraced passes of every workload, run *i* of both
sets with seed ``seed + i`` (the sets are written to ``bench/out/aa-A.json``
and ``aa-B.json``).  For every (end-to-end metric, workload) it fails when
the second median is worse than the first by more than the metric's bound, or
when either set's quartile spread exceeds the bound (``setup_s`` excepted:
only its medians are compared).  A spread above a third of the bound is
flagged.  A metric that fails needs more samples per run, not a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import names  # noqa: E402


def run_set(label: str, args: argparse.Namespace, out: Path) -> dict:
    runs = [
        harness.run_pass(workload, args.seed + i, args.seconds, 0, out)
        for workload in args.workload
        for i in range(args.runs)
    ]
    record = harness.result_record(runs, args.seed, args.seconds)
    (out / f"aa-{label}.json").write_text(json.dumps(record, indent=1))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float,
                        default=float(harness.load_contract()["run_seconds"]))
    parser.add_argument("--workload", action="append", choices=names.WORKLOADS)
    parser.add_argument("--out", default=str(harness.OUT))
    parser.add_argument("--read", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    args.workload = args.workload or list(names.WORKLOADS)
    if args.read:
        first, second = (json.loads(Path(p).read_text()) for p in args.read)
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        first, second = run_set("A", args, out), run_set("B", args, out)

    a, b = harness.samples_by_metric(first), harness.samples_by_metric(second)
    failures = 0
    print(f"{'metric':18s} {'workload':17s} {'median A':>11s} {'median B':>11s} "
          f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for metric in harness.load_contract()["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in names.WORKLOADS:
            if (name, workload) not in a or (name, workload) not in b:
                continue
            va, vb = a[(name, workload)], b[(name, workload)]
            worse = harness.worsening(statistics.median(va), statistics.median(vb), better)
            spreads = [harness.quartile_spread(v) if len(v) >= 2 else 0.0 for v in (va, vb)]
            wide = name != "setup_s" and max(spreads) > bound
            if abs(worse) > bound or wide:
                failures += 1
                status = "FAIL"
            elif name != "setup_s" and max(spreads) > bound / 3:
                status = "ok (spread above a third of the bound)"
            else:
                status = "ok"
            print(f"{name:18s} {workload:17s} {statistics.median(va):11.4f} "
                  f"{statistics.median(vb):11.4f} {worse:+10.2%} {spreads[0]:9.2%} "
                  f"{spreads[1]:9.2%} {bound:6.2f}  {status}")
    failed_ops = sum(run["failed"] for record in (first, second) for run in record["runs"])
    print(f"# {failures} metric pairs outside their bound, {failed_ops} failed operations")
    return 1 if failures or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result files: one row per (metric, workload).

    python3 bench/compare.py A.json B.json

A is the base.  Every metric with a bound is judged — the contract's
end-to-end metrics and the single-workload ``e2e.*`` metrics of
``metrics.json`` — as ``improved / unchanged / regressed / unresolved`` (see
``harness.verdict``); the other per-layer metrics are listed with their
ratio.  Every ratio is B / A.  Results from different environments (core
count, python, numpy, platform) are not comparable and are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import names  # noqa: E402


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    if a["env"] != b["env"]:
        print(f"refusing to compare: environments differ\n A: {a['env']}\n B: {b['env']}")
        return 2
    print(f"# A = {argv[1]} (commit {a['commit'][:12]}, seed {a['seed']}); "
          f"B = {argv[2]} (commit {b['commit'][:12]}, seed {b['seed']}); ratios are B / A")
    sa, sb = harness.samples_by_metric(a), harness.samples_by_metric(b)
    bounded = harness.bounded_metrics()
    regressed = 0
    print(f"{'metric':34s} {'workload':17s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'n':>5s} {'bound':>6s}  verdict")
    for metric in list(names.END_TO_END) + list(names.PER_LAYER):
        for workload in names.WORKLOADS:
            va, vb = sa.get((metric, workload)), sb.get((metric, workload))
            if not va or not vb or (max(va) == 0 and max(vb) == 0):
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = f"{mb / ma:7.3f}" if ma else "    inf"
            entry = bounded.get(metric)
            if entry is None:
                bound, outcome = "", ""
            else:
                bound = f"{entry['bound']:.2f}"
                outcome = harness.verdict(va, vb, entry["better"], entry["bound"])
                regressed += outcome == "regressed"
            print(f"{metric:34s} {workload:17s} {ma:12.5g} {mb:12.5g} {ratio} "
                  f"{len(va):2d}/{len(vb):<2d} {bound:>6s}  {outcome}")
    print(f"# {regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

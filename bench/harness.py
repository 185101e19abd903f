"""Measurement primitives of the plan-request benchmark.

Everything here is a pure function or a small in-memory object with no
dependency on ``repro``: the statistics the metrics are defined by (the
"ten samples beyond" percentile rule, the geomean of class medians), the
span recorder the traced pass uses, the plan digest the correctness checks
compare, the seeded schedule/mix generators and the environment stamp.
``test_bench_harness.py`` pins their behaviour.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# The conventional percentiles a tail may be reported at; the one used is the
# highest with at least MIN_BEYOND samples strictly beyond its nearest-rank
# value, so the reported order statistic is never one of the few extremes.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9)
MIN_BEYOND = 10


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def _rank(q: float, n: int) -> int:
    """Nearest rank of percentile ``q`` among ``n`` samples (99.9 % of 10000 is 9990)."""
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q % at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(q, len(samples)) - 1]


def supported_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND of ``n`` samples beyond it."""
    best = None
    for q in PERCENTILE_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def tail(samples: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(percentile used, value)``; fewer than 20 samples support only the median."""
    q = supported_percentile(len(samples))
    if q is None:
        return None, statistics.median(samples)
    return q, percentile(samples, q)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_medians(by_class: Dict[str, Sequence[float]]) -> Dict[str, float]:
    return {name: statistics.median(samples) for name, samples in by_class.items()}


def geomean_of_class_medians(by_class: Dict[str, Sequence[float]]) -> float:
    """Every query class counts once, however many requests it received."""
    return geomean(class_medians(by_class).values())


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------------- #
# Box speed
# --------------------------------------------------------------------------- #
# The sandbox's effective CPU speed wanders by +-20 % for seconds to minutes
# (no steal is reported; user time tracks wall).  On raw wall, ten runs of
# one commit spread 5-30 % — wider than the widest bound the driver's
# contract allows — so the timing metrics the driver gates (plan_geomean_ms,
# plan_tail_ms, plans_per_s of the closed loops, setup_s) are reported at a
# *reference speed*: each timed call is bracketed by a fixed pure-Python loop
# and its wall divided by the speed factor, the loop's time over
# REFERENCE_LOOP_S.  The constant only defines the unit (a millisecond on a
# box where the loop takes 5.8 ms, which is this one on a quiet day); it
# cannot be derived per run, because the difference between runs is what the
# factor removes.  Everything else — subprocess and socket walls, the 150 ms
# limit, backlog, the whole traced pass — is raw wall, and the raw value of
# each corrected metric is printed next to it.
CALIBRATION_LOOPS = 100_000
REFERENCE_LOOP_S = 5.8e-3


def calibration_seconds(repeats: int = 1) -> float:
    """The loop's time; with ``repeats`` > 1 the median of that many in a row."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x += i * i % 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def describe_factors(factors: Sequence[float]) -> str:
    return (f"speed factors: median {statistics.median(factors):.3f}, range "
            f"{min(factors):.3f}-{max(factors):.3f} (n={len(factors)})")


class SpeedMeter:
    """Brackets timed work with the calibration loop.

    ``factor()`` calibrates once and returns the speed factor of the work
    done since the previous calibration: the mean of the loop before and the
    loop after it, over the reference loop time.
    """

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats
        self.last = calibration_seconds(repeats)
        self.factors: List[float] = []

    def factor(self) -> float:
        now = calibration_seconds(self.repeats)
        factor = (self.last + now) / 2.0 / REFERENCE_LOOP_S
        self.last = now
        self.factors.append(factor)
        return factor


class SpeedCurve:
    """Speed factors sampled over time, for requests that overlap in time.

    The open-loop sender calibrates in the gaps of its schedule; the factor
    of a request is interpolated at its due time.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.factors: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = calibration_seconds()
        self.times.append(start + seconds / 2.0)
        self.factors.append(seconds / REFERENCE_LOOP_S)

    def at(self, when: float) -> float:
        times, factors = self.times, self.factors
        index = bisect.bisect_left(times, when)
        if index == 0:
            return factors[0]
        if index == len(times):
            return factors[-1]
        t0, t1 = times[index - 1], times[index]
        share = (when - t0) / (t1 - t0)
        return factors[index - 1] * (1.0 - share) + factors[index] * share


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = time.perf_counter()
        recorder._stack.pop()


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, request id]``.

    The benchmark opens a span around each call into a layer's public
    function.  A span's *self time* is its duration minus the part of its
    interval its direct children cover, so the self times of one request sum
    to the wall of its root span whatever the nesting.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.request: Optional[str] = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        return _Span(self, index)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            request: Optional[str] = None) -> int:
        """Record a finished span (tests, and intervals timed on another thread)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        covered: List[List[Tuple[float, float]]] = [[] for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                lo, hi = max(start, p_start), min(end, p_end)
                if hi > lo:
                    covered[parent].append((lo, hi))
        result = []
        for (name, start, end, _, _), intervals in zip(self.spans, covered):
            union = 0.0
            cursor = start
            for lo, hi in sorted(intervals):  # overlapping children count once
                lo = max(lo, cursor)
                if hi > lo:
                    union += hi - lo
                    cursor = hi
            result.append((end - start) - union)
        return result

    def self_by_request(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {request id: summed self seconds}}``."""
        totals: Dict[str, Dict[str, float]] = {}
        for (name, _, _, _, request), seconds in zip(self.spans, self.self_times()):
            bucket = totals.setdefault(name, {})
            bucket[request] = bucket.get(request, 0.0) + seconds
        return totals

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "request": request, "self": self_seconds}
            for (name, start, end, parent, request), self_seconds
            in zip(self.spans, self.self_times())
        ]


def empty_span_cost(samples: int = 20000) -> float:
    """Seconds one span costs the traced code (recorder overhead calibration)."""
    recorder = SpanRecorder()
    start = time.perf_counter()
    for _ in range(samples):
        with recorder.span("x"):
            pass
    return (time.perf_counter() - start) / samples


# --------------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------------- #
def digest_rows(rows: Iterable[Tuple[Any, str, float]]) -> str:
    """sha256 of the ranked ``(matrix entries, mnemonic, repr(seconds))`` list."""
    canonical = [
        [[list(int(x) for x in row) for row in matrix], mnemonic, repr(float(seconds))]
        for matrix, mnemonic, seconds in rows
    ]
    encoded = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def plan_digest(plan: Any) -> str:
    """Digest of an ``OptimizationPlan`` object."""
    return digest_rows(
        (s.matrix.entries, s.mnemonic, s.predicted_seconds) for s in plan.strategies
    )


def plan_dict_digest(plan: Dict[str, Any]) -> str:
    """Digest of ``OptimizationPlan.to_dict()`` output (cache entry, wire reply)."""
    return digest_rows(
        (s["matrix"], s["mnemonic"], s["predicted_seconds"]) for s in plan["strategies"]
    )


def query_key(query_dict: Dict[str, Any], system: str, nodes: int) -> str:
    """The reference file's key for one query on one machine."""
    return f"{system}x{nodes}|" + json.dumps(query_dict, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# Seeded generators
# --------------------------------------------------------------------------- #
def rotated(items: Sequence[Any], seed: int, pass_index: int) -> List[Any]:
    """``items`` in a seed-chosen order, rotated one step further each pass."""
    order = list(items)
    random.Random(seed).shuffle(order)
    shift = pass_index % len(order)
    return order[shift:] + order[:shift]


def constant_rate_schedule(rate: float, duration: float) -> List[float]:
    """Due times (seconds from phase start) of a constant-rate open loop."""
    return [i / rate for i in range(int(round(rate * duration)))]


def mix_flags(count: int, share: float, seed: Any) -> List[bool]:
    """``count`` independent draws, each true with probability ``share``."""
    rng = random.Random(seed)
    return [rng.random() < share for _ in range(count)]


# --------------------------------------------------------------------------- #
# Environment and registry
# --------------------------------------------------------------------------- #
def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_registry() -> Dict[str, Any]:
    return json.loads((BENCH_DIR / "metrics.json").read_text())


def peak_rss_mb_of(pid: int) -> float:
    """High-water RSS of another process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def python_exe() -> str:
    return sys.executable or "python3"


# --------------------------------------------------------------------------- #
# Running passes and judging two sets of them
# --------------------------------------------------------------------------- #
def run_pass(workload: str, seed: int, seconds: float, trace: int, out: Path) -> Dict[str, Any]:
    """One pass in a fresh interpreter; its stdout is echoed, its last line parsed."""
    done = subprocess.run(
        [python_exe(), str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"workload": workload, "trace": trace, "seed": seed, **result}


def result_record(runs: List[Dict[str, Any]], seed: int, seconds: float) -> Dict[str, Any]:
    return {"env": environment(), "commit": git_commit(), "seed": seed,
            "run_seconds": seconds, "runs": runs}


def samples_by_metric(record: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """``{(metric, workload): values}`` over every pass of a result file."""
    samples: Dict[Tuple[str, str], List[float]] = {}
    for run in record["runs"]:
        for metric, entry in run["metrics"].items():
            samples.setdefault((metric, run["workload"]), []).append(entry["value"])
    return samples


def bounded_metrics() -> Dict[str, Dict[str, Any]]:
    """Every metric that has a bound: the contract's, then the registry's own."""
    bounded = {m["name"]: m for m in load_contract()["end_to_end"]}
    for name, entry in load_registry()["bounds"].items():
        bounded[name] = {"name": name, **entry}
    return bounded


def worsening(base: float, other: float, better: str) -> float:
    """By what share of ``base`` ``other`` is worse (negative: better)."""
    if base == 0:
        return 0.0 if other == 0 else math.copysign(math.inf, other if better == "lower" else -other)
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: Sequence[float], other: Sequence[float], better: str, bound: float) -> str:
    """``improved / unchanged / regressed / unresolved`` for one (metric, workload).

    The medians decide against the bound.  A base whose own quartile spread
    is wider than the bound cannot resolve that either way, unless every run
    of one side beats every run of the other.  An improvement needs four runs
    a side (to know the spread), a median better by more than that spread,
    and ``other`` winning nine tenths of all pairs of runs.
    """
    worse = worsening(statistics.median(base), statistics.median(other), better)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b in base for o in other if sign * o < sign * b)
    losses = sum(1 for b in base for o in other if sign * o > sign * b)
    pairs = len(base) * len(other)
    spread = quartile_spread(base) if min(len(base), len(other)) >= 4 else None
    if spread is not None and spread > bound and wins < pairs and losses < pairs:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if spread is not None and -worse > spread and wins >= 0.9 * pairs:
        return "improved"
    return "unchanged"

"""The three closed-loop, in-process workloads: cold_rows, payload_ladder, warm_cache.

One caller, no think time: the next ``PlanningService.plan`` starts when the
previous answer has been checked.  A request's latency is the wall of that
one call; throughput is correct plans over the summed latencies, so the
harness's own bookkeeping between calls (digests, temp directories) is in
neither number.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import workloads
from checks import Checker
from harness import (
    REFERENCE_LOOP_S,
    SpanRecorder,
    SpeedMeter,
    calibration_seconds,
    class_medians,
    describe_factors,
    empty_span_cost,
    geomean,
    geomean_of_class_medians,
    own_peak_rss_mb,
    plan_dict_digest,
    plan_digest,
    python_env,
    python_exe,
    rotated,
    tail,
)
from staged import ProfileCache, staged_cold_plan, staged_hit
from workloads import Target

from repro.api import compute_plan
from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.service.cache import PlanCache
from repro.service.engine import PlanningService

# Span name -> (per-layer metric, multiplier from seconds).
COLD_LAYERS = {
    "hierarchy.enumerate": ("hierarchy.enumerate_ms", 1e3),
    "synthesis.search": ("synthesis.search_ms", 1e3),
    "synthesis.lower": ("synthesis.lower_ms", 1e3),
    "semantics.validate": ("semantics.validate_ms", 1e3),
    "cost.compile": ("cost.compile_ms", 1e3),
    "cost.price": ("cost.price_ms", 1e3),
    "api.rank": ("api.rank_ms", 1e3),
    "api.plan_to_dict": ("api.plan_to_dict_ms", 1e3),
    "service.fingerprint": ("service.fingerprint_us", 1e6),
    "service.cache_put": ("service.cache_put_ms", 1e3),
}
HIT_LAYERS = {
    "service.fingerprint": ("service.fingerprint_us", 1e6),
    "service.cache_lookup_memory": ("service.cache_lookup_memory_us", 1e6),
    "service.cache_lookup_disk": ("service.cache_lookup_disk_ms", 1e3),
    "api.plan_from_dict": ("api.plan_from_dict_ms", 1e3),
}
# The staged layers whose sum search.driver_self_ms is measured against.
SEARCH_STAGES = (
    "synthesis.search", "synthesis.lower", "semantics.validate",
    "cost.compile", "cost.price", "api.rank",
)
# A cold plan is 40-300 calibration loops long, so three loops a side cost
# under 5 % and their median shrugs off a blip that would skew a single one.
COLD_CALIBRATION_REPEATS = 3
HITS_PER_CALIBRATION = 8  # a memory hit is as long as the loop: calibrate a block at a time
COUNT_METRICS = (
    "hierarchy.matrices", "synthesis.programs", "synthesis.nodes_expanded",
    "semantics.validations", "cost.profiles_compiled", "cost.profile_classes",
    "cost.cells_priced", "search.duplicate_signature_share",
    "api.plan_dict_bytes", "service.cache_entry_bytes",
)


class Measured:
    """What one run produced: metrics, operation counts, printable detail."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.detail: List[str] = []
        self.trace: Optional[Dict] = None


def _passes(seconds: float, run_pass: Callable[[int], None]) -> int:
    """Whole passes until the time is used (to the nearest pass; at least one)."""
    elapsed = last = 0.0
    count = 0
    while count == 0 or elapsed + last / 2.0 <= seconds:
        start = time.perf_counter()
        run_pass(count)
        last = time.perf_counter() - start
        elapsed += last
        count += 1
    return count


Timed = List[Tuple[str, float, float]]  # (query class, wall seconds, speed factor) per request


def _closed_loop_metrics(measured: Measured, timed: Timed,
                         tail_of: Callable[[Dict[str, List[float]]], Tuple[float, str]]) -> None:
    """The gated metrics at the reference speed; the same on raw wall, printed next to them."""
    def gated(corrected: bool) -> Tuple[Dict[str, float], Dict[str, List[float]], str]:
        by_class: Dict[str, List[float]] = {}
        for label, wall, factor in timed:
            by_class.setdefault(label, []).append(wall / factor if corrected else wall)
        tail_ms, note = tail_of(by_class)
        return {
            "plan_geomean_ms": geomean_of_class_medians(by_class) * 1e3,
            "plan_tail_ms": tail_ms,
            "plans_per_s": len(timed) / sum(sum(samples) for samples in by_class.values()),
        }, by_class, note

    values, by_class, note = gated(corrected=True)
    measured.metrics.update(values, peak_rss_mb=own_peak_rss_mb())
    measured.detail.append(
        "class medians (ms, n): "
        + ", ".join(f"{k} {v * 1e3:.2f} (n={len(by_class[k])})"
                    for k, v in class_medians(by_class).items())
    )
    measured.detail.append(f"plan_tail_ms is {note}; {len(timed)} timed requests")
    measured.detail.append(
        "raw wall: " + ", ".join(f"{k} {v:.6g}" for k, v in gated(corrected=False)[0].items())
        + " (the metrics are these at the reference speed)"
    )
    measured.detail.append(describe_factors([f for _, _, f in timed]))


def _slowest_class_ms(by_class: Dict[str, List[float]]) -> Tuple[float, str]:
    medians = class_medians(by_class)
    slowest = max(medians, key=medians.get)
    return medians[slowest] * 1e3, f"the median of the slowest class ({slowest})"


def _percentile_tail_ms(by_class: Dict[str, List[float]]) -> Tuple[float, str]:
    q, value = tail([x for samples in by_class.values() for x in samples])
    return value * 1e3, f"p{q:g}" if q is not None else "the median (fewer than 20 samples)"


# --------------------------------------------------------------------------- #
# cold_rows
# --------------------------------------------------------------------------- #
class ColdRows:
    name = "cold_rows"
    setup_repeats = 3

    def setup(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        self.targets = workloads.cold_rows()
        # Lazy imports and first-call paths (numpy kernels included) are paid
        # here, once, so the first timed row is not an outlier.
        _fresh_service(self.targets[0], tmp / "warmup").plan(self.targets[0].query)

    def teardown(self, checker: Optional[Checker] = None) -> None:
        pass

    def measure(self, seed: int, seconds: float, checker: Checker) -> Measured:
        timed: Timed = []
        winners: Dict[str, object] = {}
        meter = SpeedMeter(COLD_CALIBRATION_REPEATS)

        def run_pass(index: int) -> None:
            for target in rotated(self.targets, seed, index):
                directory = self.tmp / f"cold-{index}-{target.label}"
                service = _fresh_service(target, directory)
                start = time.perf_counter()
                outcome = service.plan(target.query)
                wall = time.perf_counter() - start
                timed.append((target.label, wall, meter.factor()))
                digest = plan_digest(outcome.plan)
                checker.plan(target, digest, _tier(outcome), "cold")
                if index == 0:
                    checker.stored_entry(target, directory, outcome.fingerprint, digest)
                    winners[target.label] = (target, outcome.plan)
                shutil.rmtree(directory)

        _passes(seconds, run_pass)
        for target, plan in winners.values():
            checker.verify_winner(target, plan)
        measured = Measured()
        _closed_loop_metrics(measured, timed, _slowest_class_ms)
        return measured

    def trace(self, seed: int, seconds: float, checker: Checker) -> Measured:
        return _trace_cold(
            self.name, [[t] for t in self.targets], self.tmp, seconds, checker,
            long_lived=False,
        )


def _fresh_service(target: Target, directory: Optional[Path]) -> PlanningService:
    return PlanningService(target.topology, cache=PlanCache(directory))


def _tier(outcome) -> str:
    return outcome.cache_tier or "cold"


# --------------------------------------------------------------------------- #
# payload_ladder
# --------------------------------------------------------------------------- #
class PayloadLadder:
    name = "payload_ladder"
    setup_repeats = 3

    def setup(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        self.ladder = workloads.payload_ladder()
        first = self.ladder["F"][0]
        _fresh_service(first, None).plan(first.query)

    def teardown(self, checker: Optional[Checker] = None) -> None:
        pass

    def measure(self, seed: int, seconds: float, checker: Checker) -> Measured:
        timed: Timed = []
        winners: Dict[str, object] = {}
        meter = SpeedMeter(COLD_CALIBRATION_REPEATS)

        def run_pass(index: int) -> None:
            for shape, targets in self.ladder.items():
                service = _fresh_service(targets[0], None)  # long-lived, memory-only
                order = list(targets)
                random.Random(f"{seed}-{index}-{shape}").shuffle(order)
                for target in order:
                    start = time.perf_counter()
                    outcome = service.plan(target.query)
                    wall = time.perf_counter() - start
                    timed.append((shape, wall, meter.factor()))
                    checker.plan(target, plan_digest(outcome.plan), _tier(outcome), "cold")
                    winners.setdefault(shape, (target, outcome.plan))

        _passes(seconds, run_pass)
        for target, plan in winners.values():
            checker.verify_winner(target, plan)
        measured = Measured()
        _closed_loop_metrics(measured, timed, _slowest_class_ms)
        return measured

    def trace(self, seed: int, seconds: float, checker: Checker) -> Measured:
        # A shorter ladder for the traced pass: the two end rungs under both
        # algorithms still give one compiling request and three that re-price.
        short = workloads.payload_ladder(
            (workloads.LADDER_RUNGS[0], workloads.LADDER_RUNGS[-1])
        )
        return _trace_cold(
            self.name, list(short.values()), self.tmp, seconds, checker, long_lived=True
        )


# --------------------------------------------------------------------------- #
# The traced pass of the two cold workloads
# --------------------------------------------------------------------------- #
def _trace_cold(name: str, groups: Sequence[Sequence[Target]], tmp: Path,
                seconds: float, checker: Checker, long_lived: bool) -> Measured:
    """Per round and group: the real service, bare ``compute_plan``, the staged replay.

    ``groups`` are the request sequences that share a service (one row each
    for cold_rows, one shape's ladder for payload_ladder).
    """
    rec = SpanRecorder()
    service_wall: Dict[str, float] = {}
    compute_wall: Dict[str, float] = {}
    counts: Dict[str, List[float]] = {}
    search_counts: Dict[str, List[float]] = {
        "search.considered": [], "search.ranked": [], "search.bound_rejected": []}
    profile_hits = profile_misses = 0
    speedups: Dict[str, float] = {}
    loops = [calibration_seconds()]

    def run_round(index: int) -> None:
        nonlocal profile_hits, profile_misses
        for group in groups:
            directory = None if long_lived else tmp / f"trace-{index}-{group[0].label}"
            service = _fresh_service(group[0], directory)
            simulator = ProgramSimulator(group[0].topology, CostModel())
            staged_cache = PlanCache(None if long_lived else tmp / f"staged-{index}")
            profiles: ProfileCache = {}
            for position, target in enumerate(group):
                request = f"{target.label}/{index}/{position}"
                start = time.perf_counter()
                outcome = service.plan(target.query)
                service_wall[request] = time.perf_counter() - start
                digest = plan_digest(outcome.plan)
                checker.plan(target, digest, _tier(outcome), "cold")
                profile_hits += outcome.profile_hits
                profile_misses += outcome.profile_misses
                for key in search_counts:
                    search_counts[key].append(outcome.search[key.split(".", 1)[1]])
                speedups[target.key] = outcome.plan.speedup_over_default()

                start = time.perf_counter()
                compute_plan(target.topology, CostModel(), target.query, simulator=simulator)
                compute_wall[request] = time.perf_counter() - start

                rec.request = request
                plan, layer_counts = staged_cold_plan(rec, target, staged_cache, profiles)
                loops.append(calibration_seconds())
                checker.plan(target, plan_digest(plan))
                for key, value in layer_counts.items():
                    counts.setdefault(key, []).append(value)
            for cache in (service.cache, staged_cache):
                if cache.directory is not None:
                    shutil.rmtree(cache.directory, ignore_errors=True)

    _passes(seconds, run_round)

    measured = Measured()
    metrics = measured.metrics
    by_name = rec.self_by_request()
    for span, (metric, scale) in COLD_LAYERS.items():
        metrics[metric] = _layer_median(by_name, span, service_wall) * scale
    for key in COUNT_METRICS:
        if key in counts:
            metrics[key] = statistics.median(counts[key])
    for key, values in search_counts.items():
        metrics[key] = statistics.median(values)
    metrics["synthesis.useful_share"] = (
        metrics["synthesis.programs"] / metrics["synthesis.nodes_expanded"]
    )
    priced = profile_hits + profile_misses
    metrics["cost.profile_hit_share"] = profile_hits / priced if priced else 0.0
    # Derived per request, then the median: requests of different classes
    # differ several-fold, so a difference of medians would mix rows.
    named = [span for span in by_name if span not in ("service.plan", "search.run")]
    metrics["search.run_ms"] = statistics.median(compute_wall.values()) * 1e3
    metrics["search.driver_self_ms"] = statistics.median(
        compute - sum(by_name[span].get(request, 0.0) for span in SEARCH_STAGES)
        for request, compute in compute_wall.items()
    ) * 1e3
    metrics["service.cold_overhead_ms"] = statistics.median(
        service_wall[request] - compute_wall[request] for request in service_wall) * 1e3
    service_ms = statistics.median(service_wall.values()) * 1e3
    metrics["e2e.plan_p50_ms"] = service_ms
    metrics["e2e.best_speedup_geomean"] = geomean(speedups.values())
    # Reconciliation: the share of the real service wall that the named
    # layers of the same request's replay do not explain.
    metrics["bench.unaccounted_share"] = statistics.median(
        1.0 - sum(by_name[span].get(request, 0.0) for span in named) / service
        for request, service in service_wall.items()
    )
    metrics["bench.trace_overhead_share"] = (
        len(rec.spans) * empty_span_cost() / sum(rec.self_times())
    )
    measured.detail.append(
        f"{len(service_wall)} requests replayed (real service.plan, bare compute_plan, staged replay); "
        f"median service.plan {service_ms:.1f} ms"
    )
    measured.detail.append(
        "span calls: " + ", ".join(f"{k} x{v}" for k, v in sorted(rec.calls().items()))
    )
    _speed_diagnostic(measured, loops)
    measured.trace = _trace_payload(name, rec, by_name, service_wall, metrics)
    return measured


def _speed_diagnostic(measured: Measured, loops: Sequence[float]) -> None:
    """The traced pass is raw wall; the box's speed while it ran is printed, not applied."""
    factors = [seconds / REFERENCE_LOOP_S for seconds in loops]
    measured.metrics["bench.speed_factor"] = statistics.median(factors)
    measured.detail.append(describe_factors(factors) + "; a diagnostic: traced times are raw wall")


def _layer_median(by_name: Dict[str, Dict[str, float]], span: str, requests) -> float:
    """Median over ``requests`` of the span's self time; a request without it counts 0."""
    return statistics.median(by_name.get(span, {}).get(r, 0.0) for r in requests)


def _trace_payload(name: str, rec: SpanRecorder, by_name: Dict[str, Dict[str, float]],
                   walls: Dict[str, float], metrics: Dict[str, float]) -> Dict:
    """Per request: the untraced wall, each layer's self time, the unaccounted rest."""
    requests = {}
    for request, wall in walls.items():
        layers = {
            span: by_request[request]
            for span, by_request in by_name.items()
            if request in by_request and span not in ("service.plan", "search.run")
        }
        requests[request] = {
            "untraced_wall_s": wall,
            "layers_self_s": layers,
            "unaccounted_s": wall - sum(layers.values()),
        }
    return {"workload": name, "requests": requests, "calls": rec.calls(),
            "metrics": metrics, "spans": rec.to_json()}


# --------------------------------------------------------------------------- #
# warm_cache
# --------------------------------------------------------------------------- #
class WarmCache:
    name = "warm_cache"
    setup_repeats = 2

    def setup(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        self.targets = workloads.cold_rows()
        self.directory = tmp / "plan-cache"
        self.cold_digest: Dict[str, str] = {}
        self.services = self._services(PlanCache(self.directory))
        for target in self.targets:
            outcome = self.services[target.label].plan(target.query)
            self.cold_digest[target.key] = plan_digest(outcome.plan)

    def _services(self, cache: PlanCache) -> Dict[str, PlanningService]:
        """Long-lived services, one per machine, over one shared cache."""
        by_machine: Dict[Tuple[str, int], PlanningService] = {}
        services = {}
        for target in self.targets:
            machine = (target.system, target.nodes)
            if machine not in by_machine:
                by_machine[machine] = PlanningService(target.topology, cache=cache)
            services[target.label] = by_machine[machine]
        return services

    def teardown(self, checker: Optional[Checker] = None) -> None:
        pass

    def measure(self, seed: int, seconds: float, checker: Checker) -> Measured:
        for target in self.targets:
            checker.plan(target, self.cold_digest[target.key])
        timed: Timed = []
        rng = random.Random(seed)
        meter = SpeedMeter()
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            block = []
            for _ in range(HITS_PER_CALIBRATION):
                target = self.targets[rng.randrange(len(self.targets))]
                start = time.perf_counter()
                outcome = self.services[target.label].plan(target.query)
                block.append((target.label, time.perf_counter() - start))
                checker.plan(target, plan_digest(outcome.plan), _tier(outcome), "memory")
            factor = meter.factor()
            timed.extend((label, wall, factor) for label, wall in block)
        measured = Measured()
        _closed_loop_metrics(measured, timed, _percentile_tail_ms)
        return measured

    # ------------------------------------------------------------------ #
    def trace(self, seed: int, seconds: float, checker: Checker) -> Measured:
        """Staged hits, then the two other ways the same cache is read: restarts, the CLI."""
        measured = Measured()
        self._staged_hits(measured, checker, seconds * 0.35)
        disk_medians = self._disk_phase(measured, checker, seed, seconds * 0.25)
        self._cli_phase(measured, checker, seconds * 0.4, disk_medians)
        return measured

    def _staged_hits(self, measured: Measured, checker: Checker, seconds: float) -> None:
        """Memory and disk hits: the real call, then its staged replay."""
        rec = SpanRecorder()
        real: Dict[str, float] = {}
        speedups: Dict[str, float] = {}
        loops = [calibration_seconds()]
        memory_cache = self.services[self.targets[0].label].cache
        entry_bytes = [
            (self.directory / f"{self.services[t.label].query_fingerprint(t.query)}.json")
            .stat().st_size
            for t in self.targets
        ]

        def run_round(index: int) -> None:
            disk_services = self._services(PlanCache(self.directory))
            staged_disk_cache = PlanCache(self.directory)
            for target in self.targets:
                for tier, service, cache in (
                    ("memory", self.services[target.label], memory_cache),
                    ("disk", disk_services[target.label], staged_disk_cache),
                ):
                    request = f"{tier}/{target.label}/{index}"
                    start = time.perf_counter()
                    outcome = service.plan(target.query)
                    real[request] = time.perf_counter() - start
                    checker.plan(target, plan_digest(outcome.plan), _tier(outcome), tier)
                    speedups[target.key] = outcome.plan.speedup_over_default()
                    rec.request = request
                    plan = staged_hit(rec, target, cache, tier)
                    checker.plan(target, plan_digest(plan))
            loops.append(calibration_seconds())

        rounds = _passes(seconds, run_round)
        by_name = rec.self_by_request()
        metrics = measured.metrics
        for span, (metric, scale) in HIT_LAYERS.items():
            tier = [r for r in real if not span.startswith("service.cache_lookup_")
                    or r.startswith(span.rsplit("_", 1)[1] + "/")]
            metrics[metric] = _layer_median(by_name, span, tier) * scale
        metrics["service.cache_entry_bytes"] = statistics.median(entry_bytes)
        memory = [r for r in real if r.startswith("memory/")]
        memory_ms = statistics.median(real[r] for r in memory) * 1e3
        from_dict_ms = statistics.median(by_name["api.plan_from_dict"][r] for r in memory) * 1e3
        metrics["e2e.plan_p50_ms"] = memory_ms
        metrics["e2e.best_speedup_geomean"] = geomean(speedups.values())
        metrics["bench.unaccounted_share"] = statistics.median(
            1.0 - sum(by_request.get(r, 0.0) for span, by_request in by_name.items()
                      if span != "service.plan") / real[r]
            for r in memory
        )
        metrics["bench.trace_overhead_share"] = (
            len(rec.spans) * empty_span_cost() / sum(rec.self_times()))
        measured.detail.append(
            f"staged hits: {rounds} rounds x {len(self.targets)} rows x 2 tiers; median memory "
            f"hit {memory_ms:.2f} ms, of which OptimizationPlan.from_dict {from_dict_ms:.2f} ms "
            f"({from_dict_ms / memory_ms:.0%})"
        )
        _speed_diagnostic(measured, loops)
        measured.trace = _trace_payload(self.name, rec, by_name, real, metrics)

    def _disk_phase(self, measured: Measured, checker: Checker, seed: int,
                    seconds: float) -> Dict[str, float]:
        """Restarts: a fresh cache object and services over the same directory."""
        by_class: Dict[str, List[float]] = {t.label: [] for t in self.targets}

        def restart(index: int) -> None:
            services = self._services(PlanCache(self.directory))
            for target in rotated(self.targets, seed, index):
                start = time.perf_counter()
                outcome = services[target.label].plan(target.query)
                by_class[target.label].append(time.perf_counter() - start)
                checker.plan(target, plan_digest(outcome.plan), _tier(outcome), "disk")

        restarts = _passes(seconds, restart)
        measured.metrics["e2e.disk_plan_geomean_ms"] = geomean_of_class_medians(by_class) * 1e3
        measured.detail.append(f"disk phase: {restarts} restarts x {len(self.targets)} rows")
        return class_medians(by_class)

    def _cli_phase(self, measured: Measured, checker: Checker, seconds: float,
                   disk_medians: Dict[str, float]) -> None:
        """Fresh interpreters answering K and L from the disk tier."""
        batch = [t for t in self.targets if t.label in ("T4-K", "T4-L")]
        queries_file = self.tmp / "cli-queries.jsonl"
        queries_file.write_text("".join(t.query.to_json() + "\n" for t in batch))
        command = [
            python_exe(), "-m", "repro.cli", "serve-batch", "--system", "v100",
            "--nodes", "4", "--queries-file", str(queries_file),
            "--cache-dir", str(self.directory), "--json",
        ]
        walls: List[float] = []

        def run_batch(index: int) -> None:
            start = time.perf_counter()
            done = subprocess.run(command, env=python_env(), capture_output=True,
                                  text=True, timeout=120)
            walls.append(time.perf_counter() - start)
            lines = [json.loads(x) for x in done.stdout.splitlines() if x.strip()]
            if done.returncode != 0 or len(lines) != len(batch):
                checker.fail(f"serve-batch exited {done.returncode}: {done.stderr[-300:]}")
                return
            for target, outcome in zip(batch, lines):
                checker.plan(target, plan_dict_digest(outcome["plan"]),
                             outcome["cache_tier"] or "cold", "disk")

        imports: List[float] = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([python_exe(), "-c", "import repro.cli"], env=python_env(),
                           check=True, timeout=60)
            imports.append(time.perf_counter() - start)
        runs = _passes(seconds - sum(imports), run_batch)
        metrics = measured.metrics
        metrics["e2e.cli_batch_s"] = statistics.median(walls)
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.batch_overhead_s"] = (
            metrics["e2e.cli_batch_s"] - metrics["cli.import_s"]
            - sum(disk_medians[t.label] for t in batch)
        )
        measured.detail.append(f"cli phase: {runs} serve-batch runs, 3 bare imports")

"""Plain-text reporting of sweep results.

The benchmark harness and the CLI both want readable summaries of a
:class:`~repro.evaluation.runner.SweepResult`; this module renders them so the
formatting lives in one place.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.evaluation.runner import MatrixResult, SweepResult
from repro.utils.tabulate import format_table

__all__ = [
    "render_matrix_result",
    "render_sweep_result",
    "render_sweep_summary",
    "render_provenance_summary",
]


def render_matrix_result(matrix: MatrixResult, max_programs: Optional[int] = 10) -> str:
    """One matrix: its programs sorted by evaluation time."""
    programs = sorted(matrix.programs, key=lambda p: p.evaluation_seconds)
    rows = []
    for program in programs[: max_programs or len(programs)]:
        rows.append(
            [
                program.mnemonic,
                program.size,
                program.predicted_seconds,
                program.measured_seconds,
                "yes" if program.is_default_all_reduce else "",
            ]
        )
    table = format_table(
        ["program", "size", "predicted (s)", "measured (s)", "default"],
        rows,
        title=f"matrix {matrix.matrix_description} ({matrix.num_programs} programs)",
        float_fmt="{:.4f}",
    )
    speedup = matrix.speedup_over_all_reduce()
    if speedup is not None:
        table += f"\nbest speedup over AllReduce: {speedup:.2f}x"
    return table


def render_sweep_result(result: SweepResult, max_programs: Optional[int] = 10) -> str:
    """Full report for one configuration."""
    sections: List[str] = [result.describe(), ""]
    for matrix in result.matrices:
        sections.append(render_matrix_result(matrix, max_programs))
        sections.append("")
    return "\n".join(sections)


def render_sweep_summary(results: Sequence[SweepResult], snapshot=None) -> str:
    """One line per configuration: best matrix, best program and speedup.

    ``snapshot`` is forwarded to :func:`render_provenance_summary` for
    optional latency-percentile lines.
    """
    rows = []
    for result in results:
        best_matrix = result.best_matrix()
        if best_matrix is None:
            continue
        best = best_matrix.best()
        baseline = best_matrix.all_reduce
        rows.append(
            [
                result.config.name,
                result.config.algorithm.value,
                best_matrix.matrix_description,
                baseline.evaluation_seconds if baseline else None,
                best.evaluation_seconds if best else None,
                best.mnemonic if best else "-",
                round(best_matrix.speedup_over_all_reduce() or 1.0, 2),
            ]
        )
    table = format_table(
        ["config", "algo", "best matrix", "AllReduce (s)", "optimal (s)", "program", "speedup"],
        rows,
        title="Sweep summary",
        float_fmt="{:.3f}",
    )
    return table + "\n" + render_provenance_summary(results, snapshot=snapshot)


def render_provenance_summary(results: Sequence[SweepResult], snapshot=None) -> str:
    """Cache-hit ratio and wall-clock split, straight from PlanOutcome provenance.

    The timings are the ones each scenario's :class:`~repro.query.PlanOutcome`
    recorded (zero for cache hits), not re-derived sums over program results,
    so the line faithfully reports what the planner actually spent.

    ``snapshot`` (an optional :class:`~repro.obs.RecorderSnapshot`) adds
    per-span latency percentiles — p50/p99 over ``sweep.scenario`` and
    ``service.plan`` spans — when the sweep ran with telemetry enabled.
    """
    if not results:
        return "no scenarios ran"
    hits = sum(1 for r in results if r.cache_hit)
    synthesis = sum(r.synthesis_seconds for r in results)
    evaluation = sum(r.prediction_seconds for r in results)
    measurement = sum(r.measurement_seconds for r in results)
    profile_hits = sum(r.profile_hits for r in results)
    profile_misses = sum(r.profile_misses for r in results)
    ratio = hits / len(results)
    line = (
        f"plan cache: {hits}/{len(results)} hits ({ratio * 100:.0f}%); "
        f"simulation profiles: {profile_hits} repriced / {profile_misses} compiled; "
        f"wall clock: synthesis {synthesis:.2f}s + evaluation {evaluation:.2f}s "
        f"+ measurement {measurement:.2f}s"
    )
    searches = [r.search for r in results if r.search]
    if searches:
        considered = sum(s.get("considered", 0) for s in searches)
        bound_rejected = sum(s.get("bound_rejected", 0) for s in searches)
        placements_pruned = sum(s.get("placements_pruned", 0) for s in searches)
        stopped = sum(
            1 for s in searches if s.get("budget_stopped") or s.get("time_stopped")
        )
        line += (
            f"\nsearch: {considered} candidates considered, "
            f"{bound_rejected} bound-rejected, "
            f"{placements_pruned} placements pruned, "
            f"{stopped}/{len(searches)} scenario(s) budget-stopped"
        )
        incumbent_times = [
            s["time_to_incumbent_s"]
            for s in searches
            if s.get("time_to_incumbent_s") is not None
        ]
        if incumbent_times:
            seeded = sum(1 for s in searches if s.get("seeded_incumbent"))
            mean_incumbent = sum(incumbent_times) / len(incumbent_times)
            line += (
                f"\nincumbent: mean time-to-incumbent "
                f"{mean_incumbent * 1e3:.1f} ms over "
                f"{len(incumbent_times)} search(es), "
                f"{seeded} seeded from history"
            )
    if snapshot is not None:
        for name in ("sweep.scenario", "service.plan", "search.run"):
            histogram = snapshot.histograms.get(f"span.{name}")
            if histogram is None or histogram.count == 0:
                continue
            line += (
                f"\n{name}: n={histogram.count} "
                f"p50={histogram.percentile(0.50):.4f}s "
                f"p99={histogram.percentile(0.99):.4f}s "
                f"max={histogram.max:.4f}s"
            )
    return line

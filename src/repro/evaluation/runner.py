"""Sweep runner: drives scenarios through any :class:`~repro.query.Planner`.

For every scenario the runner

1. builds the scenario's :class:`~repro.query.PlanQuery` and sends it to a
   planner — a :class:`repro.api.P2` without a cache, or a
   :class:`~repro.service.engine.PlanningService` whose plan cache
   amortizes repeated sweeps,
2. regroups the resulting ranked plan into per-matrix program results,
3. (optionally) measures every program with the flow-level testbed
   simulator, in ranked order (the order is part of the determinism
   contract: a cache-warm re-run measures in exactly the same order and
   therefore reproduces the same noise stream), and
4. records the :class:`~repro.query.PlanOutcome` provenance — cache tier,
   fingerprint, synthesis/evaluation split — on the
   :class:`SweepResult`.

:meth:`SweepRunner.run_stream` streams scenarios to a JSONL file with one
flushed record per scenario, so long sweeps checkpoint as they go and can be
resumed (``resume=True`` skips scenarios whose record — matched by name and
query — is already on disk).

Everything downstream — the paper tables, the accuracy report and the Figure
11 series — is computed from the resulting :class:`SweepResult` records, so
running a scenario once is enough to regenerate all artefacts that use it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cost.model import CostModel
from repro.errors import ReproError
from repro.evaluation.config import ExperimentConfig
from repro.evaluation.scenarios import Scenario
from repro.hierarchy.matrix import ParallelismMatrix
from repro.obs.recorder import get_recorder
from repro.query import PlanOutcome, Planner
from repro.runtime.events import TestbedSimulator
from repro.runtime.noise import NoiseModel
from repro.topology.topology import MachineTopology

__all__ = ["ProgramResult", "MatrixResult", "SweepResult", "SweepRunner"]


@dataclass(frozen=True)
class ProgramResult:
    """Predicted and measured time of one lowered program on one placement."""

    label: str
    mnemonic: str
    size: int
    num_steps: int
    predicted_seconds: float
    measured_seconds: Optional[float] = None
    is_default_all_reduce: bool = False

    @property
    def evaluation_seconds(self) -> float:
        """Measured time when available, otherwise the prediction."""
        return self.measured_seconds if self.measured_seconds is not None else self.predicted_seconds


@dataclass
class MatrixResult:
    """All program results for one parallelism matrix."""

    matrix: ParallelismMatrix
    programs: List[ProgramResult]
    synthesis_seconds: float

    @property
    def matrix_description(self) -> str:
        return self.matrix.describe()

    @property
    def num_programs(self) -> int:
        return len(self.programs)

    @property
    def all_reduce(self) -> Optional[ProgramResult]:
        for program in self.programs:
            if program.is_default_all_reduce:
                return program
        return None

    def best_by_prediction(self) -> Optional[ProgramResult]:
        return min(self.programs, key=lambda p: p.predicted_seconds, default=None)

    def best_by_measurement(self) -> Optional[ProgramResult]:
        measured = [p for p in self.programs if p.measured_seconds is not None]
        return min(measured, key=lambda p: p.measured_seconds, default=None)

    def best(self) -> Optional[ProgramResult]:
        """Best program by measurement when available, else by prediction."""
        return self.best_by_measurement() or self.best_by_prediction()

    def speedup_over_all_reduce(self) -> Optional[float]:
        baseline = self.all_reduce
        best = self.best()
        if baseline is None or best is None:
            return None
        best_time = best.evaluation_seconds
        if best_time <= 0:
            return None
        return baseline.evaluation_seconds / best_time

    def programs_outperforming_all_reduce(self, threshold: float = 1.0) -> int:
        baseline = self.all_reduce
        if baseline is None:
            return 0
        base = baseline.evaluation_seconds
        return sum(
            1
            for p in self.programs
            if not p.is_default_all_reduce and p.evaluation_seconds * threshold < base
        )


@dataclass
class SweepResult:
    """Results for every matrix of one scenario, plus planning provenance.

    ``synthesis_seconds`` / ``prediction_seconds`` come straight from the
    :class:`~repro.query.PlanOutcome` that answered the scenario's query
    (both are 0.0 on a cache hit); ``cache_tier`` / ``fingerprint`` record
    how the plan was produced, and
    ``measurement_seconds`` is the testbed wall clock spent by this run.
    ``profile_hits`` / ``profile_misses`` count how many candidate
    simulations were answered by re-pricing a cached
    :class:`~repro.cost.profile.SimulationProfile`: because the runner keeps
    one planner (hence one simulator and one profile cache) per topology,
    later rungs of a payload ladder should be almost all hits.
    """

    config: ExperimentConfig
    matrices: List[MatrixResult]
    synthesis_seconds: float
    prediction_seconds: float
    measurement_seconds: float
    cache_tier: Optional[str] = None  # "memory" | "disk" | None (cold)
    fingerprint: Optional[str] = None
    planner_seconds: float = 0.0
    profile_hits: int = 0
    profile_misses: int = 0
    # Search-driver and synthesizer provenance (None on cache hits, where no
    # search ran) plus the plan's per-baseline speedups — all straight from
    # the PlanOutcome, already JSON-ready.
    search: Optional[Dict] = None
    synthesis_stats: Optional[Dict] = None
    baseline_speedups: Optional[Dict] = None
    # The request-trace id of the PlanOutcome that answered this scenario
    # (None when telemetry was disabled): lets a --trace-out timeline be
    # joined against sweep records.
    trace_id: Optional[str] = None

    @property
    def cache_hit(self) -> bool:
        return self.cache_tier is not None

    @property
    def num_matrices(self) -> int:
        return len(self.matrices)

    @property
    def total_programs(self) -> int:
        return sum(m.num_programs for m in self.matrices)

    def iter_programs(self) -> Iterator[Tuple[MatrixResult, ProgramResult]]:
        for matrix in self.matrices:
            for program in matrix.programs:
                yield matrix, program

    def best_matrix(self) -> Optional[MatrixResult]:
        """The matrix whose best program is fastest overall."""
        scored = [
            (m.best().evaluation_seconds, i, m)
            for i, m in enumerate(self.matrices)
            if m.best() is not None
        ]
        if not scored:
            return None
        return min(scored)[2]

    def provenance(self) -> Dict[str, object]:
        """The planning/measurement provenance as one JSON-ready dict."""
        return {
            "fingerprint": self.fingerprint,
            "cache_tier": self.cache_tier,
            "cache_hit": self.cache_hit,
            "synthesis_seconds": self.synthesis_seconds,
            "evaluation_seconds": self.prediction_seconds,
            "planner_seconds": self.planner_seconds,
            "measurement_seconds": self.measurement_seconds,
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "search": self.search,
            "synthesis_stats": self.synthesis_stats,
            "trace_id": self.trace_id,
        }

    def describe(self) -> str:
        source = self.cache_tier or "cold"
        return (
            f"{self.config.describe()}: {self.num_matrices} matrices, "
            f"{self.total_programs} programs "
            f"(plan [{source}]: synthesis {self.synthesis_seconds:.2f}s + "
            f"evaluation {self.prediction_seconds:.2f}s, "
            f"measurement {self.measurement_seconds:.2f}s)"
        )


PlannerFactory = Callable[[MachineTopology], Planner]


@dataclass
class SweepRunner:
    """Runs scenarios by routing their queries through a :class:`Planner`.

    Parameters
    ----------
    planner_factory:
        Builds the planner for each distinct topology of a sweep.  ``None``
        uses a :class:`repro.api.P2` without a cache.  Pass a
        factory returning a :class:`~repro.service.engine.PlanningService`
        to make sweeps cache-amortized (re-runs and duplicate shapes become
        fingerprint lookups).
        Planners are built once per topology and reused across scenarios —
        which also reuses one shape memo and one compiled-profile cache
        across a scenario's payload ladder, so only the first rung pays
        synthesis, validation and contention analysis; the resulting
        ``profile_hits`` and ``search["reused_streams"]`` land in each
        result's provenance.
    measure_programs / measurement_runs / noise_seed:
        Testbed measurement of every ranked program (the planner only
        predicts).  Measurement happens in ranked order so that cold and
        cache-warm runs consume the seeded noise stream identically.
    """

    cost_model: CostModel = field(default_factory=CostModel)
    noise_seed: int = 0
    measurement_runs: int = 3
    measure_programs: bool = True
    planner_factory: Optional[PlannerFactory] = None
    _planners: Dict[str, Planner] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Planner management
    # ------------------------------------------------------------------ #
    def planner_for(self, scenario: Scenario) -> Planner:
        """The (cached) planner answering this scenario's topology."""
        key = scenario.topology_key()
        if key not in self._planners:
            topology = scenario.topology()
            if self.planner_factory is not None:
                self._planners[key] = self.planner_factory(topology)
            else:
                from repro.api import P2

                self._planners[key] = P2(topology, cost_model=self.cost_model)
        return self._planners[key]

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, config_or_scenario: Union[ExperimentConfig, Scenario]) -> SweepResult:
        """Run one scenario (or bare config) end to end."""
        scenario = (
            config_or_scenario
            if isinstance(config_or_scenario, Scenario)
            else Scenario(config=config_or_scenario)
        )
        planner = self.planner_for(scenario)
        with get_recorder().span("sweep.scenario", scenario=scenario.name):
            outcome = planner.plan(scenario.query())
            return self.result_from_outcome(scenario, outcome)

    def run_many(
        self, configs: Sequence[Union[ExperimentConfig, Scenario]]
    ) -> List[SweepResult]:
        scenarios = [
            config if isinstance(config, Scenario) else Scenario(config=config)
            for config in configs
        ]
        return [self.run(scenario) for scenario in scenarios]

    def run_stream(
        self,
        scenarios: Sequence[Scenario],
        out_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        on_record: Optional[Callable[[Dict], None]] = None,
    ) -> List[SweepResult]:
        """Run scenarios, streaming one JSONL record per scenario.

        Each record (see :func:`repro.analysis.serialization.result_to_record`)
        is appended and flushed as soon as its scenario finishes, so the file
        is a valid checkpoint at every moment.  With ``resume=True``,
        scenarios whose record is already present — matched by scenario name
        *and* canonical query, so a changed grid recomputes — are loaded from
        the file instead of recomputed.  Results are returned in scenario
        order either way, and ``on_record`` sees every record (restored or
        fresh) in that order.
        """
        from repro.analysis.serialization import (
            iter_jsonl_records,
            result_from_record,
            result_to_record,
        )

        done: Dict[str, Dict] = {}
        path = Path(out_path) if out_path is not None else None
        if path is not None and resume and path.exists():
            for record in iter_jsonl_records(path):
                done[record.get("scenario", "")] = record  # last record wins

        results: List[SweepResult] = []
        handle = None
        try:
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(path, "a" if resume else "w")
                if resume and handle.tell() > 0:
                    # A torn trailing line (killed mid-write) must not swallow
                    # the first superseding record we append after it.
                    with open(path, "rb") as tail:
                        tail.seek(-1, 2)
                        if tail.read(1) != b"\n":
                            handle.write("\n")
            for scenario in scenarios:
                query_dict = scenario.query().to_dict()
                record = done.get(scenario.name)
                restored = None
                if record is not None and record.get("query") == query_dict:
                    try:
                        restored = result_from_record(record)
                    except (ReproError, KeyError, TypeError, ValueError):
                        restored = None  # stale/foreign record: recompute
                if restored is not None:
                    results.append(restored)
                else:
                    result = self.run(scenario)
                    record = result_to_record(result, query=query_dict)
                    results.append(result)
                    if handle is not None:
                        handle.write(json.dumps(record, sort_keys=True) + "\n")
                        handle.flush()
                if on_record is not None:
                    on_record(record)
        finally:
            if handle is not None:
                handle.close()
        return results

    # ------------------------------------------------------------------ #
    # Outcome -> SweepResult
    # ------------------------------------------------------------------ #
    def result_from_outcome(
        self, scenario: Scenario, outcome: PlanOutcome
    ) -> SweepResult:
        """Regroup a ranked :class:`PlanOutcome` into per-matrix results.

        Matrices keep the plan's candidate order; programs within a matrix
        keep the ranking order.  Measurement consumes the shared seeded
        noise stream in ranking order, which is identical for a cold and a
        cache-warm plan — so warm re-runs reproduce cold measurements
        exactly.
        """
        config = scenario.config
        plan = outcome.plan
        recorder = get_recorder()
        measure_start = time.perf_counter()
        measured_by_strategy: List[Optional[float]] = []
        if self.measure_programs:
            with recorder.span(
                "sweep.measure",
                scenario=scenario.name,
                strategies=len(plan.strategies),
            ):
                testbed = TestbedSimulator(
                    scenario.topology(), NoiseModel(seed=self.noise_seed)
                )
                for strategy in plan.strategies:
                    if strategy.program.num_steps == 0:
                        measured_by_strategy.append(0.0)
                        continue
                    measured_by_strategy.append(
                        testbed.measure(
                            strategy.program,
                            config.bytes_per_device,
                            config.algorithm,
                            num_runs=self.measurement_runs,
                        ).total_seconds
                    )
        else:
            measured_by_strategy = [
                0.0 if strategy.program.num_steps == 0 else None
                for strategy in plan.strategies
            ]
        measurement_seconds = time.perf_counter() - measure_start

        programs_by_candidate: Dict[int, List[ProgramResult]] = {}
        for strategy, measured in zip(plan.strategies, measured_by_strategy):
            label = (
                "AllReduce (default)"
                if strategy.is_default_all_reduce
                else strategy.program.label
            )
            size = (
                strategy.size
                if strategy.size is not None
                else strategy.program.num_steps
            )
            programs_by_candidate.setdefault(id(strategy.candidate), []).append(
                ProgramResult(
                    label=label,
                    mnemonic=strategy.mnemonic,
                    size=size,
                    num_steps=strategy.program.num_steps,
                    predicted_seconds=strategy.predicted_seconds,
                    measured_seconds=measured,
                    is_default_all_reduce=strategy.is_default_all_reduce,
                )
            )

        matrices = [
            MatrixResult(
                matrix=candidate.matrix,
                programs=programs_by_candidate.get(id(candidate), []),
                synthesis_seconds=candidate.synthesis_seconds,
            )
            for candidate in plan.candidates
        ]
        return SweepResult(
            config=config,
            matrices=matrices,
            synthesis_seconds=outcome.synthesis_seconds,
            prediction_seconds=outcome.evaluation_seconds,
            measurement_seconds=measurement_seconds,
            cache_tier=outcome.cache_tier,
            fingerprint=outcome.fingerprint,
            planner_seconds=outcome.total_seconds,
            profile_hits=outcome.profile_hits,
            profile_misses=outcome.profile_misses,
            search=outcome.search,
            synthesis_stats=outcome.synthesis_stats,
            baseline_speedups=outcome.baseline_speedups(),
            trace_id=outcome.trace_id,
        )

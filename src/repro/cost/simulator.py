"""The analytic program simulator (paper §5).

Given a lowered program, a machine topology and the per-device payload size,
the simulator

1. runs the Hoare semantics of the program over the physical devices to know
   how many bytes each device holds before every step (ReduceScatter shrinks
   payloads, AllGather grows them — this is what makes hierarchical
   strategies cheap on the cross-node hop),
2. analyses per-step link contention (:mod:`repro.cost.contention`), and
3. prices every group with the alpha-beta model (:mod:`repro.cost.nccl`),
   taking the step time as the maximum over its concurrent groups and the
   program time as the sum over steps.

Steps 1 and 2 are payload-independent, so :class:`ProgramSimulator` performs
them once per program by compiling a :class:`~repro.cost.profile.SimulationProfile`
(memoized per :meth:`LoweredProgram.signature`) and answering
every ``simulate`` call by *pricing* the profile — a closed-form loop over
group equivalence classes.  The priced result is bit-identical to the
original per-group evaluation, which lives in ``tests/oracles/simulator.py``
as the executable specification the profile is property-tested against.

The result object keeps the per-step breakdown so the evaluation harness and
the examples can explain *why* a strategy wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.cost.batch import BatchPricer, price_programs
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.profile import SimulationProfile, compile_profile, price_profile
from repro.errors import CostModelError
from repro.obs.recorder import get_recorder
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram
from repro.topology.topology import MachineTopology
from repro.utils.memo import BoundedMemo

__all__ = ["StepSimulation", "SimulationResult", "ProgramSimulator", "simulate_program"]

#: Compiled profiles a :class:`ProgramSimulator` keeps (least recently used out).
PROFILE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class StepSimulation:
    """Cost breakdown of one step of a simulated program."""

    collective: Collective
    num_groups: int
    group_size: int
    seconds: float
    bottleneck_link: str
    max_sharing: float
    payload_bytes: float

    def describe(self) -> str:
        return (
            f"{self.collective} x{self.num_groups} (g={self.group_size}, "
            f"{self.payload_bytes / 1e6:.1f} MB) -> {self.seconds:.4f}s "
            f"via {self.bottleneck_link} (sharing {self.max_sharing:.0f})"
        )


@dataclass(frozen=True)
class SimulationResult:
    """End-to-end prediction for one lowered program."""

    total_seconds: float
    steps: Tuple[StepSimulation, ...]
    algorithm: NCCLAlgorithm
    bytes_per_device: float
    label: str = ""

    def describe(self) -> str:
        header = f"{self.label or 'program'}: {self.total_seconds:.4f}s ({self.algorithm})"
        return "\n".join([header] + [f"  {s.describe()}" for s in self.steps])


@dataclass
class ProgramSimulator:
    """Reusable simulator bound to one topology and one cost model.

    The simulator memoizes compiled
    :class:`~repro.cost.profile.SimulationProfile` objects in ``profiles``,
    keyed by :meth:`LoweredProgram.signature` (at most
    :data:`PROFILE_CACHE_SIZE`), so re-simulating a known communication
    pattern — the same program at another payload, under the other NCCL
    algorithm, or a signature-identical candidate from a different
    placement — skips semantics and contention analysis entirely.  ``profile_hits`` / ``profile_misses`` count cache
    outcomes; they feed the planning provenance surfaced by
    ``sweep --json``, and are mirrored into the telemetry recorder
    (``profile.hit`` / ``profile.miss`` counters, a ``profile.compile`` span
    per cold signature) when telemetry is enabled.
    The recorder is captured at construction — install one via
    :func:`repro.obs.set_recorder` before building simulators that should
    report into it.
    """

    topology: MachineTopology
    cost_model: CostModel = field(default_factory=CostModel)
    recorder: Any = field(
        default_factory=get_recorder, repr=False, compare=False
    )
    # Compiles that reused the validation sweep's chunk fractions instead of
    # re-running the Hoare semantics (recorder: ``profile.semantics_reused``).
    semantics_reused: int = field(default=0, init=False, repr=False, compare=False)
    # Steps of the profiles compiled for this simulator, and how many of them were
    # analysed rather than shared with an earlier profile (reported once per search).
    steps_profiled: int = field(default=0, init=False, repr=False, compare=False)
    steps_compiled: int = field(default=0, init=False, repr=False, compare=False)
    # Batch-pricing provenance: how many price_programs calls ran and how
    # many programs they priced.  Mirrored into the telemetry recorder as
    # ``batch.prices`` / ``batch.payloads``.
    batch_prices: int = field(default=0, init=False, repr=False, compare=False)
    batch_payloads: int = field(default=0, init=False, repr=False, compare=False)
    profiles: BoundedMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.profiles = BoundedMemo("profile", PROFILE_CACHE_SIZE)

    @property
    def profile_hits(self) -> int:
        return self.profiles.hits

    @property
    def profile_misses(self) -> int:
        return self.profiles.misses

    def simulate(
        self,
        program: LoweredProgram,
        bytes_per_device: float,
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    ) -> SimulationResult:
        """Predict the end-to-end time of ``program`` (profile fast path)."""
        self._validate(program, bytes_per_device)
        profile = self.profile_for(program)
        with self.recorder.span("profile.price", steps=program.num_steps):
            return price_profile(
                profile, bytes_per_device, algorithm, self.cost_model, label=program.label
            )

    def simulate_many(
        self,
        programs: Sequence[LoweredProgram],
        bytes_per_device: float,
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    ) -> List[float]:
        """Total predicted seconds for many programs at one payload.

        One :func:`~repro.cost.batch.price_programs` call prices every
        distinct step profile once.  Profiles are resolved through
        :meth:`profile_for` in input order — the hit/miss provenance is
        exactly what per-program :meth:`simulate` calls would record.
        """
        if not programs:
            return []
        for program in programs:
            self._validate(program, bytes_per_device)
        profiles = [self.profile_for(program) for program in programs]
        with self.recorder.span(
            "profile.price", programs=len(programs), batched=True
        ):
            totals = price_programs(
                [BatchPricer(profile) for profile in profiles],
                bytes_per_device,
                algorithm,
                self.cost_model,
            )
        self.batch_prices += 1
        self.batch_payloads += len(programs)
        self.recorder.count("batch.prices")
        self.recorder.count("batch.payloads", len(programs))
        return totals

    def profile_for(self, program: LoweredProgram) -> SimulationProfile:
        """The compiled profile of ``program``, from ``profiles`` when known.

        Bound computations that must not perturb the hits + misses ==
        distinct-signatures-priced accounting read ``profiles.peek`` instead.
        """
        key = program.signature()
        cached = self.profiles.get(key)
        if cached is not None:
            self.recorder.count("profile.hit")
            return cached
        self.recorder.count("profile.miss")
        reused = program.semantics_recorded
        if reused:
            self.semantics_reused += 1
            self.recorder.count("profile.semantics_reused")
        with self.recorder.span(
            "profile.compile",
            steps=program.num_steps,
            semantics="reused" if reused else "ran",
        ) as span:
            profile = compile_profile(program, self.topology)
            span.set_attr("steps_compiled", profile.steps_compiled)
        self.steps_profiled += profile.num_steps
        self.steps_compiled += profile.steps_compiled
        self.profiles.put(key, profile)
        return profile

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _validate(self, program: LoweredProgram, bytes_per_device: float) -> None:
        if bytes_per_device < 0:
            raise CostModelError("bytes_per_device must be non-negative")
        if program.num_devices != self.topology.num_devices:
            raise CostModelError(
                f"program is over {program.num_devices} devices but the topology has "
                f"{self.topology.num_devices}"
            )


def simulate_program(
    program: LoweredProgram,
    topology: MachineTopology,
    bytes_per_device: float,
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    cost_model: Optional[CostModel] = None,
) -> SimulationResult:
    """Convenience wrapper around :class:`ProgramSimulator` for one-off calls."""
    simulator = ProgramSimulator(topology, cost_model or CostModel())
    return simulator.simulate(program, bytes_per_device, algorithm)

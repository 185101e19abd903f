"""Compiled simulation profiles: pay semantics/contention once, price in closed form.

Simulating a lowered program (:mod:`repro.cost.simulator`) does two very
different kinds of work:

* **payload-independent analysis** — running the Hoare semantics to learn the
  fraction of the payload each device holds before every step, and the link
  contention analysis that assigns every group a bottleneck link and sharing
  factor.  This depends only on the program and the machine topology.
* **payload-dependent pricing** — the alpha-beta arithmetic that turns a
  (payload, algorithm, cost model) triple into seconds.

The planner evaluates hundreds of candidate programs per query and sweeps
re-evaluate the same programs across whole payload ladders, so redoing the
analysis for every payload is the dominant waste in the hot path.  A
:class:`SimulationProfile` is the analysis phase made explicit: it is compiled
once per ``LoweredProgram`` x ``MachineTopology`` and can then be priced for
any ``(bytes_per_device, algorithm, cost_model)`` in ``O(steps x classes)``
with zero semantics work.

Within one lowered step all groups are replicas of a single virtual grouping
swept over the free digits, so their per-group analysis collapses onto a
handful of **equivalence classes** keyed by ``(group size, span level,
sharing factor, chunk fraction)`` — everything the pricing arithmetic reads.
The profile stores, per step, just those classes (in first-occurrence order)
plus the step-level attributes of the breakdown.

The contract, enforced by ``tests/test_cost_profile.py``: pricing a profile
is **bit-identical** to the per-group reference simulator in
``tests/oracles/simulator.py`` — the same
float operations in the same order (the per-group max collapses to a per-class
max over identical floats; the sum over steps is unchanged), so
``predicted_seconds`` match to the last ulp and rankings can never shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cost.contention import analyze_step_contention
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm, bytes_on_wire, latency_steps
from repro.errors import CostModelError
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram, LoweredStep
from repro.topology.topology import MachineTopology

__all__ = [
    "ProfileClass",
    "StepProfile",
    "SimulationProfile",
    "compile_profile",
    "price_profile",
]


@dataclass(frozen=True)
class ProfileClass:
    """One group equivalence class of a step: everything pricing needs.

    ``effective_bandwidth`` is the contended bandwidth
    (``link.bandwidth / sharing``) precomputed at compile time with exactly
    the float operations the per-group simulator used, so pricing reproduces
    its arithmetic bit for bit.  ``count`` records how many concurrent groups
    collapsed into this class (introspection only — the step time is a max,
    so pricing never multiplies by it).
    """

    group_size: int
    span_level: int
    chunk_fraction: float
    sharing: float
    link_name: str
    link_latency: float
    effective_bandwidth: float
    count: int


@dataclass(frozen=True)
class StepProfile:
    """The payload-independent analysis of one lowered step.

    ``ring_bound`` / ``tree_bound`` are closed-form lower-bound coefficients
    ``(latency_seconds, seconds_per_byte)`` precomputed at compile time: the
    step's true time under either algorithm is at least
    ``launch_overhead + max(latency_seconds, seconds_per_byte * payload)``.
    Each coefficient is a per-class maximum of terms every class's price
    provably dominates (the wire volume is linear in the payload with zero
    intercept, and the small-message penalty only *reduces* bandwidth), so
    the bound can never exceed :func:`price_profile`'s exact step time —
    this is what makes branch-and-bound pruning in :mod:`repro.search`
    lossless.  ``None`` (profiles built by hand in tests) means "no bound
    information": :meth:`SimulationProfile.lower_bound` then falls back to
    the launch overhead alone, which is still sound.
    """

    collective: Collective
    num_groups: int
    group_size: int
    max_sharing: float
    classes: Tuple[ProfileClass, ...]
    ring_bound: Optional[Tuple[float, float]] = None
    tree_bound: Optional[Tuple[float, float]] = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def bound_coefficients(self, algorithm: NCCLAlgorithm) -> Tuple[float, float]:
        """(latency seconds, seconds per payload byte) for ``algorithm``."""
        bound = self.ring_bound if algorithm == NCCLAlgorithm.RING else self.tree_bound
        return bound if bound is not None else (0.0, 0.0)


@dataclass(frozen=True)
class SimulationProfile:
    """A lowered program compiled against one topology, ready to price.

    Profiles are small (a handful of classes per step rather than one record
    per group) and payload/algorithm/cost-model independent, so one
    compilation serves a whole payload ladder under both NCCL algorithms.
    """

    num_devices: int
    label: str
    steps: Tuple[StepProfile, ...]
    # How many of ``steps`` this compilation analysed itself; the rest it
    # shares with profiles compiled earlier.  Provenance, not part of ``==``.
    steps_compiled: int = field(default=0, compare=False, repr=False)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_classes(self) -> int:
        """Total pricing work per payload (the sum of per-step class counts)."""
        return sum(step.num_classes for step in self.steps)

    @property
    def num_groups(self) -> int:
        """Total per-group work the compilation paid (and pricing avoids)."""
        return sum(step.num_groups for step in self.steps)

    def price(
        self,
        bytes_per_device: float,
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
        cost_model: Optional[CostModel] = None,
    ):
        """Convenience method; see :func:`price_profile`."""
        return price_profile(self, bytes_per_device, algorithm, cost_model)

    def lower_bound(
        self,
        bytes_per_device: float,
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """Closed-form lower bound on :meth:`price` for any payload — ``O(steps)``.

        Sums ``launch_overhead + max(latency_seconds, seconds_per_byte *
        payload)`` over the steps using the coefficients precompiled by
        :func:`compile_profile` (see :class:`StepProfile`).  Guaranteed
        ``lower_bound(...) <= price(...).total_seconds`` for every payload,
        algorithm and cost model whose launch overhead matches: the search
        driver uses it to reject candidates whose optimistic time already
        exceeds the incumbent without paying the per-class pricing loop.
        """
        if bytes_per_device < 0:
            raise CostModelError("bytes_per_device must be non-negative")
        model = cost_model if cost_model is not None else CostModel()
        total = 0.0
        for step in self.steps:
            latency_seconds, seconds_per_byte = step.bound_coefficients(algorithm)
            total += model.launch_overhead + max(
                latency_seconds, seconds_per_byte * bytes_per_device
            )
        return total


def _bound_coefficients(
    collective: Collective,
    algorithm: NCCLAlgorithm,
    classes: Tuple[ProfileClass, ...],
) -> Tuple[float, float]:
    """Lower-bound coefficients of one step (see :class:`StepProfile`).

    For every class, ``time >= launch + steps*latency`` and ``time >= launch
    + volume(payload)/bandwidth`` (the small-message penalty only slows the
    link down), and the wire volume is linear in the payload, so taking the
    per-class maxima of the two terms separately yields a pair that bounds
    the step's per-class maximum from below at every payload.
    """
    latency_seconds = 0.0
    seconds_per_byte = 0.0
    for cls in classes:
        steps = latency_steps(collective, algorithm, cls.group_size)
        latency_seconds = max(latency_seconds, steps * cls.link_latency)
        volume_per_byte = bytes_on_wire(
            collective, algorithm, cls.group_size, cls.chunk_fraction
        )
        seconds_per_byte = max(
            seconds_per_byte, volume_per_byte / cls.effective_bandwidth
        )
    return latency_seconds, seconds_per_byte


def compile_profile(
    program: LoweredProgram, topology: MachineTopology
) -> SimulationProfile:
    """Run semantics and contention analysis once; return the priceable profile.

    A program :meth:`~repro.synthesis.lowering.LoweredProgram.validates_against`
    already swept is not swept again (``LoweredProgram.pre_state_fractions``).
    Programs share :class:`StepProfile` objects: one is a pure function of the
    topology and (collective, groups, pre-state chunk fractions), compiled once
    per such triple.  The fractions are in the key — the same step after
    different prefixes holds different fractions and collapses into different
    classes.  The :class:`SimulationProfile` around them is the program's own.
    Raises the same errors eager simulation would: a device-count mismatch is
    a :class:`~repro.errors.CostModelError`, and a semantically invalid step
    raises :class:`~repro.errors.InvalidCollectiveError` from the Hoare rules.
    """
    if program.num_devices != topology.num_devices:
        raise CostModelError(
            f"program is over {program.num_devices} devices but the topology has "
            f"{topology.num_devices}"
        )

    step_profiles: List[StepProfile] = []
    compiled = 0
    for step, step_fractions in zip(program.steps, program.pre_state_fractions()):
        key = (step.collective, step.groups, step_fractions)
        profile = topology.step_profiles.get(key)
        if profile is None:
            profile = _compile_step(step, step_fractions, topology)
            topology.step_profiles.put(key, profile)
            compiled += 1
        step_profiles.append(profile)
    return SimulationProfile(
        program.num_devices, program.label, tuple(step_profiles), steps_compiled=compiled
    )


def _compile_step(
    step: LoweredStep, step_fractions: Tuple[float, ...], topology: MachineTopology
) -> StepProfile:
    contention = analyze_step_contention(step, topology)
    # Insertion order keeps the classes in first-occurrence order, which
    # is what makes the pricing max pick the same bottleneck group the
    # per-group loop would (see price_profile).
    classes: Dict[Tuple[int, int, float, float], List] = {}
    for group, cost, fraction in zip(step.groups, contention.groups, step_fractions):
        key = (len(group), cost.span_level, cost.sharing, fraction)
        entry = classes.get(key)
        if entry is None:
            classes[key] = [cost, fraction, 1]
        else:
            entry[2] += 1
    step_classes = tuple(
        ProfileClass(
            group_size=key[0],
            span_level=key[1],
            chunk_fraction=fraction,
            sharing=cost.sharing,
            link_name=cost.link.name,
            link_latency=cost.link.latency,
            effective_bandwidth=cost.effective_bandwidth,
            count=count,
        )
        for key, (cost, fraction, count) in classes.items()
    )
    return StepProfile(
        collective=step.collective,
        num_groups=step.num_groups,
        group_size=step.group_size,
        max_sharing=contention.max_sharing,
        classes=step_classes,
        ring_bound=_bound_coefficients(step.collective, NCCLAlgorithm.RING, step_classes),
        tree_bound=_bound_coefficients(step.collective, NCCLAlgorithm.TREE, step_classes),
    )


def _scan_step(
    step: StepProfile,
    bytes_per_device: float,
    algorithm: NCCLAlgorithm,
    model: CostModel,
) -> Tuple[float, Optional[ProfileClass], float]:
    """One step's time: the max over its classes, and the bottleneck's payload.

    Classes are scanned in first-occurrence order with a strict ``>`` from
    0.0, so the bottleneck is the first class to reach the maximum, as it is
    the first group to reach it in the per-group loop.  When no class prices
    above 0.0 (zero payload under a zero-overhead cost model on zero-latency
    links) the bottleneck is the first class at payload 0.0, and ``None`` for
    a step with no classes.
    """
    worst_seconds = 0.0
    worst_class = step.classes[0] if step.classes else None
    worst_payload = 0.0
    for cls in step.classes:
        payload = cls.chunk_fraction * bytes_per_device
        seconds = model.group_time(
            op=step.collective,
            algorithm=algorithm,
            group_size=cls.group_size,
            payload_bytes=payload,
            bandwidth=cls.effective_bandwidth,
            link_latency=cls.link_latency,
        )
        if seconds > worst_seconds:
            worst_seconds = seconds
            worst_class = cls
            worst_payload = payload
    return worst_seconds, worst_class, worst_payload


def price_profile(
    profile: SimulationProfile,
    bytes_per_device: float,
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    cost_model: Optional[CostModel] = None,
    label: Optional[str] = None,
):
    """Price a compiled profile: the closed-form ``O(steps x classes)`` loop.

    Bit-identical to the per-group reference simulation: within a class every
    group prices to the same float, so the max over classes equals the max
    over groups, and :func:`_scan_step`'s strict ``>`` over classes in
    first-occurrence order selects the same bottleneck (link, payload) the
    group loop's strict ``>`` would.  ``label`` overrides the profile's own
    label (used when a cached profile answers for a program that shares its
    signature).
    """
    from repro.cost.simulator import SimulationResult, StepSimulation

    if bytes_per_device < 0:
        raise CostModelError("bytes_per_device must be non-negative")
    model = cost_model if cost_model is not None else CostModel()

    steps: List[StepSimulation] = []
    total = 0.0
    for step in profile.steps:
        seconds, bottleneck, payload = _scan_step(step, bytes_per_device, algorithm, model)
        steps.append(
            StepSimulation(
                collective=step.collective,
                num_groups=step.num_groups,
                group_size=step.group_size,
                seconds=seconds,
                bottleneck_link=bottleneck.link_name if bottleneck is not None else "-",
                max_sharing=step.max_sharing,
                payload_bytes=payload,
            )
        )
        total += seconds
    return SimulationResult(
        total_seconds=total,
        steps=tuple(steps),
        algorithm=algorithm,
        bytes_per_device=bytes_per_device,
        label=profile.label if label is None else label,
    )

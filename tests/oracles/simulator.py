"""The per-group reference simulator: the executable pricing specification.

:meth:`repro.cost.simulator.ProgramSimulator.simulate` prices a compiled
:class:`~repro.cost.profile.SimulationProfile`, one row per group
equivalence class.  :func:`simulate_reference` is the original evaluation it
replaced: run the Hoare semantics step by step, price every group with the
alpha-beta model, take each step's worst group.  Profile pricing must stay
bit-identical to it — ``tests/test_cost_profile.py`` asserts exact float
equality across payload ladders and both NCCL algorithms.  A new cost-model
feature lands here first and is mirrored into :mod:`repro.cost.profile`
under the same contract.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cost.contention import analyze_step_contention
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator, SimulationResult, StepSimulation
from repro.semantics.collectives import apply_collective
from repro.semantics.goals import initial_context
from repro.semantics.state import DeviceState, StateContext
from repro.synthesis.lowering import LoweredProgram, LoweredStep

__all__ = ["simulate_reference"]


def simulate_reference(
    simulator: ProgramSimulator,
    program: LoweredProgram,
    bytes_per_device: float,
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
) -> SimulationResult:
    """Price ``program`` group by group on ``simulator``'s topology and cost model."""
    simulator._validate(program, bytes_per_device)
    context = initial_context(program.num_devices)
    steps: List[StepSimulation] = []
    total = 0.0
    for step in program.steps:
        step_result, context = _simulate_step(
            simulator, step, context, bytes_per_device, algorithm
        )
        steps.append(step_result)
        total += step_result.seconds
    return SimulationResult(
        total_seconds=total,
        steps=tuple(steps),
        algorithm=algorithm,
        bytes_per_device=bytes_per_device,
        label=program.label,
    )


def _simulate_step(
    simulator: ProgramSimulator,
    step: LoweredStep,
    context: StateContext,
    bytes_per_device: float,
    algorithm: NCCLAlgorithm,
) -> Tuple[StepSimulation, StateContext]:
    contention = analyze_step_contention(step, simulator.topology)

    # A lowered step always has at least one group (LoweredStep enforces
    # it), so the fallback bottleneck is the first group's link: it is
    # reported, with the 0.0 payload it was priced at, exactly when every
    # group prices to 0.0 seconds (zero payload under a zero-overhead
    # cost model on zero-latency links) and the strict ``>`` never fires.
    worst_seconds = 0.0
    worst_link = contention.groups[0].link.name if contention.groups else "-"
    worst_payload = 0.0
    updates: Dict[int, DeviceState] = {}

    for group, cost in zip(step.groups, contention.groups):
        pre_states = [context[d] for d in group]
        payload = max(s.chunk_fraction() for s in pre_states) * bytes_per_device
        seconds = simulator.cost_model.group_time(
            op=step.collective,
            algorithm=algorithm,
            group_size=len(group),
            payload_bytes=payload,
            bandwidth=cost.effective_bandwidth,
            link_latency=cost.link.latency,
        )
        if seconds > worst_seconds:
            worst_seconds = seconds
            worst_link = cost.link.name
            worst_payload = payload
        post_states = apply_collective(step.collective, pre_states)
        for device, state in zip(group, post_states):
            updates[device] = state

    new_context = context.replace(updates)
    step_result = StepSimulation(
        collective=step.collective,
        num_groups=step.num_groups,
        group_size=step.group_size,
        seconds=worst_seconds,
        bottleneck_link=worst_link,
        max_sharing=contention.max_sharing,
        payload_bytes=worst_payload,
    )
    return step_result, new_context

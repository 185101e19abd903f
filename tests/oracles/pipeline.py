"""The eager pipeline that came before the lazy search driver.

``synthesize_all`` -> :func:`collect_strategy_entries` ->
:func:`evaluate_entries_serial` -> ``rank_entries``: synthesize every
placement's programs up front, flatten them into one entry list, price the
list.  :func:`repro.api.compute_plan` streams the same entries through
:class:`~repro.search.driver.SearchDriver` instead; the tests check that the
stream and its prices equal this list exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.allreduce import default_all_reduce
from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.simulator import ProgramSimulator
from repro.hierarchy.parallelism import ReductionRequest
from repro.search.source import StrategyEntry
from repro.synthesis.pipeline import PlacementCandidate
from repro.topology.topology import MachineTopology

__all__ = ["collect_strategy_entries", "evaluate_entries_serial"]


def collect_strategy_entries(
    candidates: Sequence[PlacementCandidate], request: ReductionRequest
) -> List[StrategyEntry]:
    """Flatten placement candidates into the evaluation-order entry list."""
    entries: List[StrategyEntry] = []
    for candidate in candidates:
        baseline = default_all_reduce(candidate.placement, request)
        entries.append(StrategyEntry(candidate, baseline, "AR", True, 1))
        for program in candidate.programs:
            if program.is_default_all_reduce:
                continue
            entries.append(
                StrategyEntry(
                    candidate, program.lowered, program.mnemonic, False, program.size
                )
            )
    return entries


def evaluate_entries_serial(
    entries: Sequence[StrategyEntry],
    topology: MachineTopology,
    cost_model: CostModel,
    bytes_per_device: int,
    algorithm: NCCLAlgorithm,
    simulator: Optional[ProgramSimulator] = None,
) -> List[float]:
    """Predicted seconds per entry, computed in-process (zero-step programs are free).

    Entries whose lowered programs share a :meth:`LoweredProgram.signature`
    are simulated once — the signature is the communication pattern, so the
    predicted time is the same float either way.  Pass a ``simulator`` bound
    to the same topology and cost model to reuse its compiled-profile cache
    across calls; otherwise a fresh one is used.
    """
    if simulator is None:
        simulator = ProgramSimulator(topology, cost_model)
    predicted = [0.0] * len(entries)
    first_with_signature: Dict[Tuple, int] = {}
    for i, entry in enumerate(entries):
        if entry.lowered.num_steps == 0:
            continue
        # num_devices is part of the key: signature() only records the
        # groups, but chunk fractions depend on the device count, and a
        # mismatched program must still reach simulate() to be rejected.
        signature = (entry.lowered.num_devices, entry.lowered.signature())
        duplicate_of = first_with_signature.get(signature)
        if duplicate_of is not None:
            predicted[i] = predicted[duplicate_of]
            continue
        first_with_signature[signature] = i
        predicted[i] = simulator.simulate(
            entry.lowered, bytes_per_device, algorithm
        ).total_seconds
    return predicted

"""Shared per-topology simulators for the table/figure builders.

The row generators in :mod:`repro.evaluation.tables` price many programs on
the same handful of topologies; constructing a fresh
:class:`~repro.cost.simulator.ProgramSimulator` per row discards the
compiled-profile and coefficient-table caches exactly where they pay off
(every table-3 shape reprices the same default-AllReduce signatures four
times over).  :func:`shared_simulator` keys one simulator per canonical
topology (structurally equal topologies share, whatever instance built
them) and cost model, so repeated shapes compile once per process.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.cost.model import CostModel
from repro.cost.simulator import ProgramSimulator
from repro.service.fingerprint import canonical_topology
from repro.topology.topology import MachineTopology
from repro.utils.memo import BoundedMemo

__all__ = ["shared_simulator"]

_MAX_SIMULATORS = 16
_SIMULATORS = BoundedMemo("evaluation.simulators", _MAX_SIMULATORS)


def shared_simulator(
    topology: MachineTopology, cost_model: Optional[CostModel] = None
) -> ProgramSimulator:
    """The process-wide simulator for ``topology`` (built on first use)."""
    model = cost_model if cost_model is not None else CostModel()
    key = (json.dumps(canonical_topology(topology), sort_keys=True), model)
    simulator = _SIMULATORS.get(key)
    if simulator is None:
        simulator = ProgramSimulator(topology, model)
        _SIMULATORS.put(key, simulator)
    return simulator

"""Metamorphic oracles: relations between whole plans, checked with exact ``==``.

Neither relation re-implements any part of the planner.  Each one plans two
queries that must agree by construction and compares the answers:

* **Axis transposition.**  Listing the parallelism axes in reverse order (and
  renumbering the reduction axes to match) names the same devices and the
  same reduction groups, so the planner must find the same strategies at the
  same predicted times: the multiset of (mnemonic, predicted_seconds) is
  unchanged.  Matrices are not compared; their rows follow the axis order.
* **Unit scaling.**  Doubling every link bandwidth, the cost model's
  small-message threshold and the payload leaves every transfer time
  ``bytes / bandwidth`` and every latency term unchanged, and the doublings
  are exact in binary floating point, so the ranked list of
  (matrix, mnemonic, predicted_seconds) is identical.

Every query goes through a long-lived :class:`PlanningService` per machine, as
a daemon would answer it, so the shape memo and the compiled-profile cache
are exercised too.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.cost.model import CostModel
from repro.query import PlanQuery
from repro.service import PlanCache, PlanningService
from repro.topology.gcp import a100_system, v100_system

KIB = 1 << 10
MIB = 1 << 20
MAX_PROGRAM_SIZE = 3

SYSTEMS = {"a100x2": lambda: a100_system(num_nodes=2), "v100x4": lambda: v100_system(num_nodes=4)}
ALGORITHMS = ["ring", "tree"]
# (axes, reduce) and its transpose: reversed axes, reduction axes renumbered.
TRANSPOSES = [
    (((8, 4), (0,)), ((4, 8), (1,))),
    (((2, 16), (1,)), ((16, 2), (0,))),
    (((2, 2, 8), (0, 2)), ((8, 2, 2), (0, 2))),
]
PAYLOADS = [64 * KIB, 1 * MIB, 64 * MIB]

_SERVICES = {}


def _service(system: str, scale: int = 1) -> PlanningService:
    """One service per (machine, scale), kept for the whole module."""
    key = (system, scale)
    if key not in _SERVICES:
        topology = SYSTEMS[system]()
        cost_model = CostModel()
        if scale != 1:
            def scaled(link):
                return dataclasses.replace(link, bandwidth=link.bandwidth * scale)

            host = topology.host_link
            topology = dataclasses.replace(
                topology,
                interconnects=tuple(scaled(link) for link in topology.interconnects),
                host_link=scaled(host) if host is not None else None,
            )
            cost_model = dataclasses.replace(
                cost_model, small_message_bytes=cost_model.small_message_bytes * scale
            )
        _SERVICES[key] = PlanningService(topology, cost_model, cache=PlanCache(None))
    return _SERVICES[key]


def _query(axes, reduce, payload, algorithm) -> PlanQuery:
    return PlanQuery(axes, reduce, payload, algorithm, max_program_size=MAX_PROGRAM_SIZE)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize(
    "shape,transposed", TRANSPOSES, ids=lambda pair: "x".join(map(str, pair[0]))
)
def test_transposed_axes_give_the_same_strategies(system, algorithm, shape, transposed):
    service = _service(system)
    plans = [
        service.plan(_query(axes, reduce, 16 * MIB, algorithm)).plan
        for axes, reduce in (shape, transposed)
    ]
    priced = [Counter((s.mnemonic, s.predicted_seconds) for s in p.strategies) for p in plans]
    assert priced[0] == priced[1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("payload", PAYLOADS)
def test_doubling_every_unit_keeps_the_ranking(system, algorithm, payload):
    base = _service(system).plan(_query((8, 4), (0,), payload, algorithm)).plan
    doubled = _service(system, 2).plan(_query((8, 4), (0,), 2 * payload, algorithm)).plan
    ranked = [
        [(s.matrix.entries, s.mnemonic, s.predicted_seconds) for s in plan.strategies]
        for plan in (base, doubled)
    ]
    assert ranked[0] == ranked[1]

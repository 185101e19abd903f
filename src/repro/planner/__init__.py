"""Placement planning across multiple reductions (paper §4.1).

A real training step usually performs more than one reduction — gradients
over the data-parallel axis, activations over the sharding axis, expert
all-to-alls, ... — and §4.1 of the paper points out that a placement that is
optimal for one of them can be catastrophic for another (the B1 vs. B3
trade-off in Table 3).  :func:`plan_placements` picks the placement that
minimises the *combined* cost of all reductions over any
:class:`~repro.query.Planner`, using for every placement the best synthesized
strategy per reduction.
"""

from repro.planner.multi import (
    MultiReductionPlan,
    PlacementEvaluation,
    ReductionChoice,
    WeightedReduction,
    plan_placements,
)

__all__ = [
    "WeightedReduction",
    "ReductionChoice",
    "PlacementEvaluation",
    "MultiReductionPlan",
    "plan_placements",
]

"""Pricing many compiled profiles at one payload.

A search prices every strategy of every placement at one payload, over
profiles that are already compiled.  Programs of a plan share their
:class:`~repro.cost.profile.StepProfile` objects (``compile_profile``
memoizes them on the topology), so :func:`price_programs` prices each
distinct step once and sums each program's step maxima.  A
:class:`BatchPricer` is the one-slot holder of a profile that it takes per
program.

Both this and :func:`~repro.cost.profile.price_profile` run the same step
scan, so ``price_programs`` equals ``price_profile(...).total_seconds`` per
profile to the last ulp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm
from repro.cost.profile import SimulationProfile, _scan_step
from repro.errors import CostModelError

__all__ = ["BatchPricer", "price_programs"]


class BatchPricer:
    """One program's compiled profile, as :func:`price_programs` takes it."""

    __slots__ = ("profile",)

    def __init__(self, profile: SimulationProfile) -> None:
        self.profile = profile


def price_programs(
    pricers: Sequence[BatchPricer],
    bytes_per_device: float,
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
    cost_model: Optional[CostModel] = None,
) -> List[float]:
    """Total seconds for many profiles at one payload.

    Each distinct step profile (found by identity) is scanned once; each
    program's total accumulates its step maxima sequentially in step order,
    as :func:`~repro.cost.profile.price_profile` does.
    """
    if bytes_per_device < 0:
        raise CostModelError("bytes_per_device must be non-negative")
    model = cost_model if cost_model is not None else CostModel()

    step_seconds: Dict[int, float] = {}
    totals: List[float] = []
    for pricer in pricers:
        total = 0.0
        for step in pricer.profile.steps:
            seconds = step_seconds.get(id(step))
            if seconds is None:
                seconds = step_seconds[id(step)] = _scan_step(
                    step, bytes_per_device, algorithm, model
                )[0]
            total += seconds
        totals.append(total)
    return totals

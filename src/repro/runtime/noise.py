"""Noise and imperfection models for the testbed simulator.

Real measurements differ from an analytic alpha-beta model for many reasons:
protocol overheads per link class, imperfect overlap, stragglers and plain
network noise.  The :class:`NoiseModel` captures these as

* a deterministic per-link-kind *efficiency* (the fraction of nominal
  bandwidth a well-tuned transfer achieves),
* a multiplicative log-normal perturbation per flow, and
* a per-step jitter on the fixed overhead.

The model is seeded and therefore reproducible.  The defaults deliberately
include an extra penalty on cross-PCIe-domain traffic so that the V100 system
is modelled *less* faithfully by the analytic predictor than the A100 system —
mirroring the paper's observation (§5) that its simulator's absolute accuracy
is lower on V100 because of "imperfect modeling of cross-domain
communication".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import ReproError
from repro.topology.links import LinkKind

__all__ = ["NoiseModel"]

_DEFAULT_EFFICIENCY: Dict[LinkKind, float] = {
    LinkKind.NVSWITCH: 0.92,
    LinkKind.NVLINK_RING: 0.88,
    LinkKind.PCIE: 0.80,
    LinkKind.NIC: 0.85,
    LinkKind.DCN: 0.85,
    LinkKind.SHARED_MEMORY: 0.75,
}


@dataclass
class NoiseModel:
    """Reproducible noise / efficiency model for testbed measurements.

    Parameters
    ----------
    seed:
        Seed for the internal generator; measurements with the same seed are
        identical.
    sigma:
        Standard deviation of the log-normal flow perturbation (0 disables it).
    step_jitter:
        Uniform jitter, in seconds, added to each step's fixed overhead.
    cross_domain_penalty:
        Extra multiplicative slowdown applied to cross-node flows on systems
        with a host (PCIe) link — the effect the analytic model ignores.
    """

    seed: int = 0
    sigma: float = 0.05
    step_jitter: float = 20e-6
    cross_domain_penalty: float = 1.25
    efficiencies: Dict[LinkKind, float] = field(default_factory=lambda: dict(_DEFAULT_EFFICIENCY))
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ReproError("sigma must be non-negative")
        if self.step_jitter < 0:
            raise ReproError("step_jitter must be non-negative")
        if self.cross_domain_penalty < 1:
            raise ReproError("cross_domain_penalty must be >= 1")
        for kind, value in self.efficiencies.items():
            if not 0 < value <= 1:
                raise ReproError(f"efficiency for {kind} must be in (0, 1], got {value}")
        self._rng = np.random.default_rng(self.seed)

    def link_efficiency(self, kind: LinkKind) -> float:
        """Deterministic fraction of nominal bandwidth achieved on ``kind`` links."""
        return self.efficiencies.get(kind, 0.85)

    def flow_factor(self) -> float:
        """Multiplicative slowdown (>= ~1) applied to one flow's transfer time."""
        if self.sigma == 0:
            return 1.0
        return float(np.exp(self._rng.normal(loc=self.sigma**2, scale=self.sigma)))

    def step_overhead_jitter(self) -> float:
        """Additional per-step overhead in seconds."""
        if self.step_jitter == 0:
            return 0.0
        return float(self._rng.uniform(0.0, self.step_jitter))

    def cross_domain_factor(self, has_host_link: bool) -> float:
        """Penalty for cross-node flows that also traverse a host link."""
        return self.cross_domain_penalty if has_host_link else 1.0

"""One vectorized pricing kernel over compiled simulation profiles.

:func:`repro.cost.profile.price_profile` is a pure-Python ``O(steps x
classes)`` loop per ``(program, payload, algorithm)``.  A search prices every
strategy of every placement at one payload, over profiles that are already
compiled, so that loop becomes the hot path.  :func:`price_programs` lifts it
into numpy: it stacks the per-class coefficients of every *distinct* step
profile of many programs — chunk fraction, contended bandwidth, link latency,
and the ``group_size``-derived wire-volume and latency-step factors of the
algorithm — into flat arrays (one row block per
:class:`~repro.cost.profile.StepProfile` object; programs of a plan share
them), prices all rows with elementwise ops, takes per-step maxima with
``np.maximum.reduceat`` and sums each program's step maxima in a small
sequential loop over its steps.  A :class:`BatchPricer` is the one-slot
holder of a profile that the kernel takes per program.

The contract is the same one ``tests/test_cost_profile.py`` enforces between
the profile and the reference simulator: **exact float equality**, not
approximation.  Every arithmetic step mirrors the scalar loop operation for
operation:

* the wire volume is linear in the payload with zero intercept, so the
  per-class volume collapses to ``coefficient * payload`` where
  ``coefficient = bytes_on_wire(op, algorithm, group_size, 1.0)``; because the
  scalar formulas multiply the payload last (``((2.0*(g-1))/g) * n``,
  ``(g-1) * n``, ``1.0 * n == n``), the product is bit-identical to the
  scalar call at every payload;
* the latency term ``latency_steps * link_latency`` is payload-independent
  and precomputed exactly as the scalar code evaluates it;
* per-class seconds are ``launch + (latency + volume / bandwidth)`` with the
  scalar parenthesization, the small-message bandwidth derating applied under
  the identical strict ``<`` comparison;
* the per-step maximum over non-NaN floats is exact and order-free, so the
  segment reduce equals the scalar first-to-last scan;
* program totals accumulate the per-step maxima **sequentially in step
  order** (never a pairwise/tree sum, which would round differently).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm, bytes_on_wire, latency_steps
from repro.cost.profile import SimulationProfile, StepProfile
from repro.errors import CostModelError

__all__ = ["BatchPricer", "price_programs"]


class _Rows:
    """Class rows under one algorithm, built step by step: one row per class, one
    segment (for ``np.maximum.reduceat``) per step with classes."""

    def __init__(self) -> None:
        self.frac: List[float] = []
        self.ebw: List[float] = []
        self.coeff: List[float] = []
        self.lat: List[float] = []
        self.offsets: List[int] = []

    def add(self, step: StepProfile, algorithm: NCCLAlgorithm) -> int:
        """Append ``step``'s class rows (it has at least one); its segment index."""
        self.offsets.append(len(self.frac))
        for cls in step.classes:
            self.frac.append(cls.chunk_fraction)
            self.ebw.append(cls.effective_bandwidth)
            # bytes_on_wire at payload 1.0 is exactly the per-byte
            # coefficient: the scalar formulas all multiply the payload
            # last, so coefficient * payload reproduces them bit for bit.
            self.coeff.append(bytes_on_wire(step.collective, algorithm, cls.group_size, 1.0))
            self.lat.append(
                latency_steps(step.collective, algorithm, cls.group_size) * cls.link_latency
            )
        return len(self.offsets) - 1

    def arrays(self) -> Tuple:
        """(frac, ebw, coeff, lat, offsets) as numpy arrays."""
        as_array = lambda xs: _np.asarray(xs, dtype=_np.float64)  # noqa: E731
        return (
            as_array(self.frac),
            as_array(self.ebw),
            as_array(self.coeff),
            as_array(self.lat),
            _np.asarray(self.offsets, dtype=_np.intp),
        )


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
    """Total seconds for many profiles at one payload, in one flat kernel.

    Each distinct step profile contributes its class rows once; per-step
    maxima come from ``np.maximum.reduceat`` over the step segments (max over
    non-NaN floats is exact and order-free, so the segment reduce equals the
    scalar first-to-last scan), and per-program totals accumulate the step
    maxima sequentially in step order.  Exact-equal to calling
    ``price_profile(...).total_seconds`` on each profile.
    """
    if bytes_per_device < 0:
        raise CostModelError("bytes_per_device must be non-negative")
    model = cost_model if cost_model is not None else CostModel()

    # One row block per distinct step profile: programs of a plan share their
    # StepProfile objects (compile_profile memoizes them on the topology), so
    # identity finds the repeats.  Per program, the ordered segment indices of
    # its steps with classes (an empty step prices to 0.0 and adds nothing).
    rows = _Rows()
    segment_of: Dict[int, int] = {}
    program_segments: List[List[int]] = []
    for pricer in pricers:
        segments: List[int] = []
        for step in pricer.profile.steps:
            if step.classes:
                segment = segment_of.get(id(step))
                if segment is None:
                    segment = segment_of[id(step)] = rows.add(step, algorithm)
                segments.append(segment)
        program_segments.append(segments)

    if not rows.offsets:
        return [0.0] * len(pricers)

    frac, ebw, coeff, lat, offsets = rows.arrays()
    p = _np.float64(bytes_per_device)
    pay = frac * p
    bw = _np.where(pay < model.small_message_bytes, ebw * model.small_message_efficiency, ebw)
    sec = model.launch_overhead + (lat + (coeff * pay) / bw)
    step_max = _np.maximum.reduceat(sec, offsets).tolist()

    totals: List[float] = []
    for segments in program_segments:
        total = 0.0
        for segment in segments:
            # Sequential step accumulation, as in the scalar loop.
            total = total + step_max[segment]
        totals.append(total)
    return totals

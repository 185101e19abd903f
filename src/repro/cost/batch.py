"""Vectorized batch pricing over compiled simulation profiles (ROADMAP item 3).

:func:`repro.cost.profile.price_profile` is a pure-Python ``O(steps x
classes)`` loop per ``(payload, algorithm)``.  Payload-ladder sweeps, baseline
pricing and scenario grids re-run that loop thousands of times over profiles
that are already compiled, so the loop itself becomes the hot path.  A
:class:`BatchPricer` lifts it into numpy: once per
:class:`~repro.cost.profile.SimulationProfile` it stacks the per-class
coefficients — chunk fraction, contended bandwidth, link latency, and the
``group_size``-derived wire-volume and latency-step factors of both NCCL
algorithms — into flat arrays, and then prices an entire payload vector (or a
payloads x algorithms grid) with elementwise broadcast ops plus an ordered
per-step reduction.

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
* the per-step bottleneck is ``argmax`` over the class axis in
  first-occurrence order — exactly the class the scalar strict ``>`` scan
  selects (when every class prices to 0.0 the scalar fallback reports the
  first class's link at payload 0.0, which is also what index 0 yields,
  because a zero step time forces a zero payload: volume coefficients are
  strictly positive for any group of >= 2 devices);
* program totals accumulate the per-step maxima **sequentially in step
  order** (never a pairwise/tree sum, which would round differently).

When numpy is unavailable the pricer transparently falls back to the scalar
loop (flagged via :attr:`BatchPricer.vectorized` so callers can count
fallbacks); results are identical either way.

:func:`price_programs` is the cross-program companion: it prices every
*distinct* step profile of many programs once, at a single payload, in one
kernel — one row block per :class:`~repro.cost.profile.StepProfile` object
(programs of a plan share them), per-step maxima via ``np.maximum.reduceat``
(max is exact and order-free over non-NaN floats) — and sums each program's
step maxima in a small sequential loop over its steps.  The streaming search
driver uses it to price a whole exhaustive entry stream in one call.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is a declared dependency, but the scalar fallback keeps the
    import numpy as _np  # simulator importable on stripped-down interpreters.
except ImportError:  # pragma: no cover - exercised via _force_scalar in tests
    _np = None

from repro.cost.model import CostModel
from repro.cost.nccl import NCCLAlgorithm, bytes_on_wire, latency_steps
from repro.cost.profile import SimulationProfile, StepProfile, price_profile
from repro.errors import CostModelError

__all__ = [
    "have_numpy",
    "BatchPricer",
    "BatchPriceResult",
    "price_programs",
]


def have_numpy() -> bool:
    """Whether the vectorized kernels are available in this interpreter."""
    return _np is not None


class _FlatTable:
    """All steps' class coefficients under one algorithm, concatenated.

    One row per (step, class) in step order; ``offsets`` marks where each
    non-empty step's segment begins (for ``np.maximum.reduceat``) and
    ``positions`` maps each profile step to its segment index (``None`` for
    steps with no classes).  Flattening lets one kernel price every step at
    once — per-step sub-arrays would pay numpy's per-call overhead dozens of
    times per profile.
    """

    __slots__ = ("frac", "ebw", "coeff", "lat", "offsets", "positions")

    def __init__(self, frac, ebw, coeff, lat, offsets, positions) -> None:
        self.frac = frac  # chunk fraction per class row
        self.ebw = ebw  # contended bandwidth per class row
        self.coeff = coeff  # wire bytes per payload byte per class row
        self.lat = lat  # latency_steps * link_latency per class row
        self.offsets = offsets  # segment starts (np.intp), one per non-empty step
        self.positions = positions  # per step: segment index or None


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


def _validated_payloads(payloads: Sequence[float]) -> List[float]:
    values = list(payloads)
    if not values:
        raise CostModelError("payload vector must be non-empty")
    for value in values:
        if value < 0:
            raise CostModelError("bytes_per_device must be non-negative")
    return values


class BatchPricer:
    """One profile's pricing arithmetic, compiled into coefficient tables.

    The first pricing under an algorithm walks the profile once (the only
    place ``bytes_on_wire`` / ``latency_steps`` are evaluated) and keeps the
    table; pricing afterwards is pure array arithmetic.  The pricer is
    payload- and cost-model-free: launch overhead and the small-message
    derating are applied at price time, so one pricer serves any
    :class:`~repro.cost.model.CostModel` exactly like the scalar loop does.
    """

    def __init__(self, profile: SimulationProfile) -> None:
        self.profile = profile
        self.vectorized = _np is not None
        self._flat: Dict[NCCLAlgorithm, Optional[_FlatTable]] = {}

    @cached_property
    def _links(self) -> Tuple[Tuple[str, ...], ...]:
        """Link names per step, for materializing SimulationResult objects."""
        return tuple(tuple(cls.link_name for cls in step.classes) for step in self.profile.steps)

    def table(self, algorithm: NCCLAlgorithm) -> Optional[_FlatTable]:
        """The coefficient table under ``algorithm``, built when first priced."""
        if algorithm not in self._flat:
            self._flat[algorithm] = self._flat_table(self.profile, algorithm)
        return self._flat[algorithm]

    @staticmethod
    def _flat_table(
        profile: SimulationProfile, algorithm: NCCLAlgorithm
    ) -> Optional[_FlatTable]:
        rows = _Rows()
        positions: List[Optional[int]] = []
        for step in profile.steps:
            positions.append(rows.add(step, algorithm) if step.classes else None)
        if not rows.offsets:
            return None
        return _FlatTable(*rows.arrays(), tuple(positions))

    # ------------------------------------------------------------------ #
    def price(
        self,
        payloads: Sequence[float],
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
        cost_model: Optional[CostModel] = None,
        label: Optional[str] = None,
    ) -> "BatchPriceResult":
        """Price the whole payload vector; exact-equal to the scalar loop."""
        values = _validated_payloads(payloads)
        model = cost_model if cost_model is not None else CostModel()
        if not self.vectorized:
            return BatchPriceResult._from_scalar(
                self.profile, values, algorithm, model, label
            )

        num_payloads = len(values)
        flat = self.table(algorithm)
        if flat is None:
            # Every step is empty: all-zero totals, "-" fallback links.
            return BatchPriceResult(
                profile=self.profile,
                algorithm=algorithm,
                payloads=tuple(values),
                label=label,
                _totals=_np.zeros(num_payloads),
                _positions=(None,) * self.profile.num_steps,
                _links=self._links,
            )
        p = _np.asarray(values, dtype=_np.float64)
        launch = model.launch_overhead
        smb = model.small_message_bytes
        eff = model.small_message_efficiency

        # One kernel over every (step, class) row at once:
        # payload = chunk_fraction * bytes_per_device per class row, the
        # small-message derating of CostModel.group_time under the scalar
        # strict ``<`` comparison, then launch + (steps * latency +
        # volume / bandwidth) with the exact scalar parenthesization.
        pay = flat.frac[:, None] * p[None, :]
        bw = _np.where(pay < smb, flat.ebw[:, None] * eff, flat.ebw[:, None])
        sec = launch + (flat.lat[:, None] + (flat.coeff[:, None] * pay) / bw)
        # Per-step maxima over each segment (max over non-NaN floats is
        # exact and order-free, so the reduce equals the scalar scan).
        worst = _np.maximum.reduceat(sec, flat.offsets, axis=0)
        totals = _np.zeros(num_payloads)
        for position in flat.positions:
            if position is not None:
                # Sequential accumulation in step order: bit-identical to
                # the scalar ``total += worst_seconds`` (never pairwise).
                totals += worst[position]
        return BatchPriceResult(
            profile=self.profile,
            algorithm=algorithm,
            payloads=tuple(values),
            label=label,
            _totals=totals,
            _sec=sec,
            _pay=pay,
            _worst=worst,
            _offsets=flat.offsets,
            _positions=flat.positions,
            _links=self._links,
        )

    def grid(
        self,
        payloads: Sequence[float],
        algorithms: Sequence[NCCLAlgorithm] = (NCCLAlgorithm.RING, NCCLAlgorithm.TREE),
        cost_model: Optional[CostModel] = None,
        label: Optional[str] = None,
    ) -> Dict[NCCLAlgorithm, "BatchPriceResult"]:
        """The (payloads x algorithms) grid as one result per algorithm."""
        return {
            algorithm: self.price(payloads, algorithm, cost_model, label)
            for algorithm in algorithms
        }

    def lower_bounds(
        self,
        payloads: Sequence[float],
        algorithm: NCCLAlgorithm = NCCLAlgorithm.RING,
        cost_model: Optional[CostModel] = None,
    ) -> List[float]:
        """Vectorized :meth:`SimulationProfile.lower_bound` over a payload vector.

        Exact-equal to the scalar method at every payload, so bounds priced
        through the batch path stay admissible by the very same floats.
        """
        values = _validated_payloads(payloads)
        model = cost_model if cost_model is not None else CostModel()
        if not self.vectorized:
            return [
                self.profile.lower_bound(value, algorithm, model) for value in values
            ]
        p = _np.asarray(values, dtype=_np.float64)
        totals = _np.zeros(len(values))
        for step in self.profile.steps:
            latency_seconds, seconds_per_byte = step.bound_coefficients(algorithm)
            term = model.launch_overhead + _np.maximum(
                latency_seconds, seconds_per_byte * p
            )
            totals = totals + term
        return [float(x) for x in totals]


class BatchPriceResult:
    """A whole payload ladder priced against one profile under one algorithm.

    ``totals`` mirrors ``price_profile(...).total_seconds`` per payload;
    :meth:`result` materializes the full per-step
    :class:`~repro.cost.simulator.SimulationResult` for one column on demand
    (bottleneck links and payloads included), bit-identical to the scalar
    call.
    """

    def __init__(
        self,
        profile: SimulationProfile,
        algorithm: NCCLAlgorithm,
        payloads: Tuple[float, ...],
        label: Optional[str],
        _totals=None,
        _sec=None,
        _pay=None,
        _worst=None,
        _offsets=None,
        _positions=None,
        _links=None,
        _scalar_results=None,
    ) -> None:
        self.profile = profile
        self.algorithm = algorithm
        self.payloads = payloads
        self.label = label
        self._totals = _totals
        # The flattened per-(step, class) seconds/payload matrices plus the
        # segment layout; bottlenecks and full results materialize lazily
        # from them, so the totals-only hot path never pays for argmax.
        self._sec = _sec
        self._pay = _pay
        self._worst = _worst
        self._offsets = _offsets
        self._positions = _positions
        self._links = _links
        self._scalar_results = _scalar_results

    def _segment(self, position: int) -> Tuple[int, int]:
        start = int(self._offsets[position])
        if position + 1 < len(self._offsets):
            return start, int(self._offsets[position + 1])
        return start, self._sec.shape[0]

    @classmethod
    def _from_scalar(cls, profile, values, algorithm, model, label):
        results = [
            price_profile(profile, value, algorithm, model, label=label)
            for value in values
        ]
        return cls(
            profile=profile,
            algorithm=algorithm,
            payloads=tuple(values),
            label=label,
            _scalar_results=results,
        )

    @property
    def num_payloads(self) -> int:
        return len(self.payloads)

    @property
    def vectorized(self) -> bool:
        return self._scalar_results is None

    @property
    def totals(self) -> List[float]:
        """``total_seconds`` per payload, as Python floats, in input order."""
        if self._scalar_results is not None:
            return [result.total_seconds for result in self._scalar_results]
        return [float(x) for x in self._totals]

    def total(self, index: int) -> float:
        if self._scalar_results is not None:
            return self._scalar_results[index].total_seconds
        return float(self._totals[index])

    def bottlenecks(self, index: int) -> List[int]:
        """Per-step bottleneck class indices for payload ``index`` (-1: empty step)."""
        if self._scalar_results is not None:
            out = []
            for s, step in enumerate(self.profile.steps):
                sim = self._scalar_results[index].steps[s]
                if not step.classes:
                    out.append(-1)
                    continue
                names = [c.link_name for c in step.classes]
                # The scalar result records the link, not the index; recover
                # the first class matching both link and seconds.
                chosen = 0
                for k, cls_ in enumerate(step.classes):
                    if names[k] == sim.bottleneck_link:
                        chosen = k
                        break
                out.append(chosen)
            return out
        indices = []
        for position in self._positions:
            if position is None:
                indices.append(-1)
                continue
            start, end = self._segment(position)
            # First-occurrence argmax == the scalar strict ``>`` scan.
            indices.append(int(_np.argmax(self._sec[start:end, index])))
        return indices

    def result(self, index: int, label: Optional[str] = None):
        """The full :class:`SimulationResult` for one payload column."""
        from repro.cost.simulator import SimulationResult, StepSimulation

        if self._scalar_results is not None:
            base = self._scalar_results[index]
            if label is None or label == base.label:
                return base
            return SimulationResult(
                total_seconds=base.total_seconds,
                steps=base.steps,
                algorithm=base.algorithm,
                bytes_per_device=base.bytes_per_device,
                label=label,
            )
        steps = []
        for s, step in enumerate(self.profile.steps):
            position = self._positions[s]
            if position is None:
                # An empty step prices to 0.0 with the "-" fallback link.
                seconds, link, payload = 0.0, "-", 0.0
            else:
                start, end = self._segment(position)
                k = int(_np.argmax(self._sec[start:end, index]))
                seconds = float(self._worst[position, index])
                link = self._links[s][k]
                payload = float(self._pay[start + k, index])
            steps.append(
                StepSimulation(
                    collective=step.collective,
                    num_groups=step.num_groups,
                    group_size=step.group_size,
                    seconds=seconds,
                    bottleneck_link=link,
                    max_sharing=step.max_sharing,
                    payload_bytes=payload,
                )
            )
        effective_label = label if label is not None else self.label
        if effective_label is None:
            effective_label = self.profile.label
        return SimulationResult(
            total_seconds=float(self._totals[index]),
            steps=tuple(steps),
            algorithm=self.algorithm,
            bytes_per_device=self.payloads[index],
            label=effective_label,
        )

    def results(self, label: Optional[str] = None) -> List:
        return [self.result(i, label=label) for i in range(self.num_payloads)]


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
    if _np is None or any(not pricer.vectorized for pricer in pricers):
        return [
            price_profile(
                pricer.profile, bytes_per_device, algorithm, model
            ).total_seconds
            for pricer in pricers
        ]

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

"""Tunable constants of the analytic cost model.

The :class:`CostModel` groups the knobs that are not properties of the
hardware itself: the per-collective launch overhead (XLA/NCCL kernel launch
plus rendezvous), an optional fixed per-step synchronisation cost, and a
bandwidth-efficiency factor for very small messages.  Separating these from
the topology keeps "what the machine is" and "how well software drives it"
independent, which is also how the paper's simulator treats its assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.nccl import NCCLAlgorithm, collective_time
from repro.errors import CostModelError
from repro.semantics.collectives import Collective

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Software-side cost constants used by the simulator.

    Attributes
    ----------
    launch_overhead:
        Seconds added per collective step (kernel launch, group rendezvous).
    small_message_bytes / small_message_efficiency:
        Messages smaller than ``small_message_bytes`` only achieve
        ``small_message_efficiency`` of the link bandwidth (protocol overhead
        dominates short transfers).

    Predicted cost is **not** monotone in payload.  The derating is a step
    at ``small_message_bytes``: with the defaults, one ring AllReduce over
    8 devices on a 100 GB/s link is predicted at 70.7 us for
    ``(1 << 20) - 1`` bytes and 52.4 us for ``1 << 20`` bytes.  A strategy's
    messages cross the step at different payloads, so rankings can reorder
    there too; nothing may assume that a larger payload costs more.
    """

    launch_overhead: float = 20e-6
    small_message_bytes: float = 1 << 20
    small_message_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.launch_overhead < 0:
            raise CostModelError("launch_overhead must be non-negative")
        if self.small_message_bytes < 0:
            raise CostModelError("small_message_bytes must be non-negative")
        if not 0 < self.small_message_efficiency <= 1:
            raise CostModelError("small_message_efficiency must be in (0, 1]")

    def group_time(
        self,
        op: Collective,
        algorithm: NCCLAlgorithm,
        group_size: int,
        payload_bytes: float,
        bandwidth: float,
        link_latency: float,
    ) -> float:
        """Time for one group to run ``op``, including software overheads."""
        effective_bandwidth = bandwidth
        if payload_bytes < self.small_message_bytes:
            effective_bandwidth = bandwidth * self.small_message_efficiency
        transfer = collective_time(
            op,
            algorithm,
            group_size,
            payload_bytes,
            effective_bandwidth,
            link_latency,
        )
        return self.launch_overhead + transfer

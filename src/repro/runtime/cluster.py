"""A cluster of simulated devices with identically-shaped payloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import RuntimeExecutionError
from repro.runtime.device import SimDevice

__all__ = ["SimCluster"]


@dataclass
class SimCluster:
    """All devices participating in one reduction, plus their initial payloads."""

    devices: List[SimDevice]
    initial_payloads: np.ndarray  # shape (num_devices, payload_elems)

    @classmethod
    def create(
        cls,
        num_devices: int,
        elems_per_chunk: int = 4,
        init: Optional[Callable[[int], np.ndarray]] = None,
        seed: Optional[int] = 0,
    ) -> "SimCluster":
        """Create a cluster of ``num_devices`` devices.

        Each device's payload has ``num_devices * elems_per_chunk`` elements
        (one chunk per device, mirroring the state-matrix convention).  By
        default payloads are random (seeded); pass ``init`` to control them.
        """
        if num_devices < 1:
            raise RuntimeExecutionError("num_devices must be >= 1")
        if elems_per_chunk < 1:
            raise RuntimeExecutionError("elems_per_chunk must be >= 1")
        payload_elems = num_devices * elems_per_chunk
        rng = np.random.default_rng(seed)
        payloads = np.empty((num_devices, payload_elems), dtype=np.float64)
        for d in range(num_devices):
            if init is not None:
                data = np.asarray(init(d), dtype=np.float64)
                if data.shape != (payload_elems,):
                    raise RuntimeExecutionError(
                        f"init({d}) must return {payload_elems} elements, got {data.shape}"
                    )
            else:
                data = rng.normal(size=payload_elems)
            payloads[d] = data
        devices = [
            SimDevice.with_data(d, num_devices, elems_per_chunk, payloads[d])
            for d in range(num_devices)
        ]
        return cls(devices=devices, initial_payloads=payloads)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def __getitem__(self, device_id: int) -> SimDevice:
        return self.devices[device_id]

    def __iter__(self) -> Iterator[SimDevice]:
        return iter(self.devices)

    # ------------------------------------------------------------------ #
    # Oracles for verification
    # ------------------------------------------------------------------ #
    def expected_reduction(self, group: Sequence[int]) -> np.ndarray:
        """The element-wise sum of the *initial* payloads of ``group``."""
        for d in group:
            if not 0 <= d < self.num_devices:
                raise RuntimeExecutionError(f"device {d} out of range")
        return self.initial_payloads[list(group)].sum(axis=0)

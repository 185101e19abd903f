"""A simulated device holding one payload buffer.

The payload of every device is split into ``num_chunks`` equal chunks (one per
participating device, mirroring the chunk rows of the semantic state
matrices).  A device tracks which chunks it currently holds *valid* data for:
``ReduceScatter`` leaves each member with only its share of chunks, and
``Reduce`` clears non-root members entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set, Tuple

import numpy as np

from repro.errors import RuntimeExecutionError

__all__ = ["SimDevice"]


@dataclass
class SimDevice:
    """One device of the in-memory runtime."""

    device_id: int
    num_chunks: int
    chunk_elems: int
    buffer: np.ndarray
    valid_chunks: Set[int] = field(default_factory=set)

    @classmethod
    def with_data(
        cls, device_id: int, num_chunks: int, chunk_elems: int, data: np.ndarray
    ) -> "SimDevice":
        """Create a device holding ``data`` (all chunks valid)."""
        expected = num_chunks * chunk_elems
        if data.shape != (expected,):
            raise RuntimeExecutionError(
                f"device {device_id}: expected buffer of {expected} elements, got {data.shape}"
            )
        return cls(
            device_id=device_id,
            num_chunks=num_chunks,
            chunk_elems=chunk_elems,
            buffer=np.array(data, dtype=np.float64, copy=True),
            valid_chunks=set(range(num_chunks)),
        )

    # ------------------------------------------------------------------ #
    # Chunk access
    # ------------------------------------------------------------------ #
    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.num_chunks:
            raise RuntimeExecutionError(
                f"chunk {chunk} out of range for {self.num_chunks} chunks"
            )

    def chunk(self, chunk: int) -> np.ndarray:
        """Return a copy of one chunk's data (valid or not)."""
        self._check_chunk(chunk)
        start = chunk * self.chunk_elems
        return self.buffer[start : start + self.chunk_elems].copy()

    def set_chunk(self, chunk: int, values: np.ndarray, valid: bool = True) -> None:
        """Overwrite one chunk and mark it valid/invalid."""
        self._check_chunk(chunk)
        if values.shape != (self.chunk_elems,):
            raise RuntimeExecutionError(
                f"chunk values must have {self.chunk_elems} elements, got {values.shape}"
            )
        start = chunk * self.chunk_elems
        self.buffer[start : start + self.chunk_elems] = values
        if valid:
            self.valid_chunks.add(chunk)
        else:
            self.valid_chunks.discard(chunk)

    def invalidate(self, chunks: Iterable[int]) -> None:
        for chunk in chunks:
            self._check_chunk(chunk)
            self.valid_chunks.discard(chunk)

    @property
    def sorted_valid_chunks(self) -> Tuple[int, ...]:
        return tuple(sorted(self.valid_chunks))

    @property
    def num_valid_chunks(self) -> int:
        return len(self.valid_chunks)

    def full_payload(self) -> np.ndarray:
        """The whole buffer (only meaningful when every chunk is valid)."""
        if len(self.valid_chunks) != self.num_chunks:
            raise RuntimeExecutionError(
                f"device {self.device_id} holds only {len(self.valid_chunks)} of "
                f"{self.num_chunks} chunks"
            )
        return self.buffer.copy()

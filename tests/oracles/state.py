"""Dense-matrix views, set algebra and predicates over :class:`DeviceState`.

The package keeps a device state as two packed integers and never needs
its paper Figure 7 matrix, nor this algebra on the packed form; the tests
do, to build states from explicit matrices and to check the packed layout
against row-by-row arithmetic.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

import numpy as np

from repro.errors import SemanticsError
from repro.semantics.state import DeviceState, StateContext

__all__ = [
    "state_from_matrix",
    "state_to_matrix",
    "restricted_to_rows",
    "union",
    "is_subset",
    "rows_disjoint",
    "row_sets_disjoint",
    "context_from_mapping",
]


def state_from_matrix(matrix: Sequence[Sequence[int]]) -> DeviceState:
    """Build a state from an explicit 0/1 matrix (row = chunk, column = contributor)."""
    num_chunks = len(matrix)
    rows: List[int] = []
    for r, row in enumerate(matrix):
        if len(row) != num_chunks:
            raise SemanticsError(f"state matrices must be square; row {r} is not")
        mask = 0
        for c, bit in enumerate(row):
            if bit not in (0, 1):
                raise SemanticsError(f"matrix entries must be 0/1, got {bit!r}")
            if bit:
                mask |= 1 << c
        rows.append(mask)
    return DeviceState(num_chunks, tuple(rows))


def state_to_matrix(state: DeviceState) -> np.ndarray:
    """The state as a dense ``uint8`` 0/1 matrix (rows = chunks)."""
    out = np.zeros((state.num_chunks, state.num_chunks), dtype=np.uint8)
    for r, mask in enumerate(state.rows):
        for c in range(state.num_chunks):
            if mask & (1 << c):
                out[r, c] = 1
    return out


def restricted_to_rows(state: DeviceState, rows: Iterable[int]) -> DeviceState:
    """``state`` with every chunk outside ``rows`` dropped (packed masks)."""
    k = state.num_chunks
    full = (1 << k) - 1
    keep = kept_rows = 0
    for r in rows:
        keep |= full << (r * k)
        kept_rows |= 1 << r
    return DeviceState._packed(k, state.bits & keep, state.present & kept_rows)


def _check_compatible(a: DeviceState, b: DeviceState) -> None:
    if a.num_chunks != b.num_chunks:
        raise SemanticsError(f"state size mismatch: {a.num_chunks} vs {b.num_chunks}")


def union(a: DeviceState, b: DeviceState) -> DeviceState:
    """Element-wise OR (the paper's ``⊎`` once disjointness has been checked)."""
    _check_compatible(a, b)
    return DeviceState._packed(a.num_chunks, a.bits | b.bits, a.present | b.present)


def is_subset(a: DeviceState, b: DeviceState) -> bool:
    """Element-wise ``<=`` (the paper's information order on states)."""
    _check_compatible(a, b)
    return not a.bits & ~b.bits


def rows_disjoint(a: DeviceState, b: DeviceState) -> bool:
    """True if no chunk has a contributor present in both states (one ``&``)."""
    _check_compatible(a, b)
    return not a.bits & b.bits


def row_sets_disjoint(a: DeviceState, b: DeviceState) -> bool:
    """True if the two states have no non-empty row index in common (one ``&``)."""
    _check_compatible(a, b)
    return not a.present & b.present


def context_from_mapping(mapping: Mapping[int, DeviceState]) -> StateContext:
    """A context from ``{device: state}`` covering devices ``0..n-1``."""
    devices = sorted(mapping)
    if devices != list(range(len(devices))):
        raise SemanticsError(
            f"state contexts must cover devices 0..n-1 contiguously, got {devices}"
        )
    return StateContext(tuple(mapping[d] for d in devices))

"""Digit-grid encodings of placements, the inverse of the package's decoders.

The package decodes a device id into its digit grid
(:meth:`DevicePlacement.device_to_grid`) and builds every group from
strides; nothing in it encodes a grid back into an id.  The geometry tests
do, to check that decoding is a bijection and that virtual devices land on
the devices that carry their digits.
"""

from __future__ import annotations

from typing import Sequence

from repro.hierarchy.placement import DevicePlacement
from repro.synthesis.hierarchy import SynthesisHierarchy
from repro.utils.mixed_radix import MixedRadix

__all__ = ["grid_to_device", "free_radix"]


def grid_to_device(placement: DevicePlacement, grid: Sequence[Sequence[int]]) -> int:
    """The device id of a full digit grid ``c[i][j]`` (axis ``i``, level ``j``).

    Each level's digit is the mixed radix of its per-axis digits, and the id
    is the mixed radix of the level digits.
    """
    matrix = placement.matrix
    level_digits = [
        MixedRadix(matrix.column(j)).encode(tuple(grid[i][j] for i in range(matrix.num_rows)))
        for j in range(matrix.num_cols)
    ]
    return MixedRadix(matrix.hierarchy.cardinalities).encode(level_digits)


def free_radix(hierarchy: SynthesisHierarchy) -> MixedRadix:
    """The mixed radix over the matrix positions no virtual device covers."""
    return MixedRadix(tuple(hierarchy.matrix.factor(i, j) for i, j in hierarchy.free_positions))

"""Parallelism matrices and placement synthesis (paper §3.1).

A parallelism matrix has one row per parallelism axis and one column per
hardware-hierarchy level.  Entry ``X[i][j]`` is the *parallelism factor*: how
many ways axis ``i`` is split at level ``j``.  The two constraints from the
paper are

* column products equal the hierarchy cardinalities (eq. 1), and
* row products equal the parallelism-axis sizes (eq. 2).

:func:`enumerate_parallelism_matrices` enumerates every matrix satisfying
both constraints — this is the whole of "parallelism placement synthesis" and
is what collapses the naive ``(prod p_i)!`` assignment space (§2.1) to a small
structured set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import List, Optional, Tuple

from repro.errors import PlacementError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.parallelism import ParallelismAxes
from repro.utils.factorization import ordered_factorizations

__all__ = [
    "ParallelismMatrix",
    "enumerate_parallelism_matrices",
    "count_naive_placements",
]


@dataclass(frozen=True)
class ParallelismMatrix:
    """An assignment of parallelism factors to hierarchy levels.

    ``entries[i][j]`` is the factor of parallelism axis ``i`` at hierarchy
    level ``j`` (root level first).  Instances are immutable and hashable so
    they can key result dictionaries in the evaluation harness.
    """

    hierarchy: SystemHierarchy
    axes: ParallelismAxes
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = len(self.entries)
        if rows != self.axes.num_axes:
            raise PlacementError(
                f"matrix has {rows} rows but there are {self.axes.num_axes} parallelism axes"
            )
        cols = {len(row) for row in self.entries}
        if cols != {self.hierarchy.num_levels}:
            raise PlacementError(
                f"matrix rows must all have {self.hierarchy.num_levels} columns, got {cols}"
            )
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x < 1:
                    raise PlacementError(f"parallelism factor X[{i}][{j}] = {x} must be >= 1")
        self._check_products()

    def _check_products(self) -> None:
        for j, level in enumerate(self.hierarchy.levels):
            column_product = 1
            for i in range(self.num_rows):
                column_product *= self.entries[i][j]
            if column_product != level.cardinality:
                raise PlacementError(
                    f"column {j} ({level.name}) product is {column_product}, "
                    f"expected cardinality {level.cardinality}"
                )
        for i, size in enumerate(self.axes.sizes):
            row_product = 1
            for j in range(self.num_cols):
                row_product *= self.entries[i][j]
            if row_product != size:
                raise PlacementError(
                    f"row {i} ({self.axes.names[i]}) product is {row_product}, "
                    f"expected axis size {size}"
                )

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of parallelism axes."""
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        """Number of hierarchy levels."""
        return self.hierarchy.num_levels

    @property
    def num_devices(self) -> int:
        return self.hierarchy.num_devices

    def row(self, i: int) -> Tuple[int, ...]:
        """Factors of parallelism axis ``i`` across all levels."""
        return self.entries[i]

    def column(self, j: int) -> Tuple[int, ...]:
        """Factors of all axes at hierarchy level ``j``."""
        return tuple(self.entries[i][j] for i in range(self.num_rows))

    def factor(self, axis: int, level: int) -> int:
        return self.entries[axis][level]

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Compact representation, e.g. ``[[1 2] [4 8]]`` (one bracket per axis)."""
        return "[" + " ".join("[" + " ".join(str(x) for x in row) + "]" for row in self.entries) + "]"


def enumerate_parallelism_matrices(
    hierarchy: SystemHierarchy,
    axes: ParallelismAxes,
    max_results: Optional[int] = None,
) -> List[ParallelismMatrix]:
    """Enumerate every parallelism matrix for ``hierarchy`` and ``axes``.

    The search proceeds column by column (hierarchy level by level).  For each
    level cardinality ``h_j`` we consider every ordered factorization into one
    factor per axis, and prune any branch where an axis's accumulated product
    no longer divides its target size.  If the total device count does not
    equal the total parallelism, the result is empty.

    Parameters
    ----------
    max_results:
        Optional cap on the number of matrices returned (useful for smoke
        tests on very large systems); ``None`` means enumerate everything.
    """
    if hierarchy.num_devices != axes.total_parallelism:
        return []

    targets = axes.sizes
    num_axes = axes.num_axes
    cardinalities = hierarchy.cardinalities

    # Suffix products of the cardinalities: the most parallelism any axis can
    # still pick up from the remaining levels.  Used for look-ahead pruning.
    suffix_products: List[int] = [1] * (len(cardinalities) + 1)
    for j in range(len(cardinalities) - 1, -1, -1):
        suffix_products[j] = suffix_products[j + 1] * cardinalities[j]

    results: List[ParallelismMatrix] = []
    columns: List[Tuple[int, ...]] = []

    def _recurse(level: int, accumulated: Tuple[int, ...]) -> bool:
        """Return ``False`` if enumeration should stop early (cap reached)."""
        if max_results is not None and len(results) >= max_results:
            return False
        if level == len(cardinalities):
            if all(accumulated[i] == targets[i] for i in range(num_axes)):
                entries = tuple(
                    tuple(columns[j][i] for j in range(len(columns))) for i in range(num_axes)
                )
                results.append(ParallelismMatrix(hierarchy, axes, entries))
            return True
        remaining = suffix_products[level + 1]
        for factors in ordered_factorizations(cardinalities[level], num_axes):
            ok = True
            new_acc = []
            for i in range(num_axes):
                acc = accumulated[i] * factors[i]
                # Prune: the row product so far must divide the target, and the
                # remaining levels must be able to supply the missing factor.
                if targets[i] % acc != 0 or (targets[i] // acc) > remaining:
                    ok = False
                    break
                new_acc.append(acc)
            if not ok:
                continue
            columns.append(factors)
            keep_going = _recurse(level + 1, tuple(new_acc))
            columns.pop()
            if not keep_going:
                return False
        return True

    _recurse(0, tuple([1] * num_axes))
    return results


def count_naive_placements(axes: ParallelismAxes) -> int:
    """Size of the naive assignment space the paper contrasts against (§2.1).

    With ``P = prod p_i`` program shards mapped onto ``P`` devices there are
    ``P!`` arbitrary assignments; the parallelism-matrix formulation replaces
    this with the handful returned by :func:`enumerate_parallelism_matrices`.
    """
    return factorial(axes.total_parallelism)

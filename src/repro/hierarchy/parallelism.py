"""Parallelism axes and reduction requests.

A model's parallelisation is described by one size per *parallelism axis*
(data parallelism, parameter sharding, pipeline stages, ...).  The user then
asks for a reduction over a subset of those axes — e.g. gradient all-reduce
runs over the data-parallel axis, Megatron-style sharded layers reduce over
the tensor-parallel axis.  These two notions are deliberately independent of
any hardware hierarchy; they are combined with one by a parallelism matrix
(:mod:`repro.hierarchy.matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.errors import HierarchyError
from repro.utils.validation import check_positive_ints

__all__ = ["ParallelismAxes", "ReductionRequest"]

_DEFAULT_AXIS_NAMES = ("data", "model", "pipeline", "expert")


@dataclass(frozen=True)
class ParallelismAxes:
    """The sizes (and optional names) of the parallelism axes.

    Example
    -------
    >>> axes = ParallelismAxes((4, 4), names=("data", "shard"))
    >>> axes.total_parallelism
    16
    """

    sizes: Tuple[int, ...]
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        sizes = check_positive_ints(self.sizes, "parallelism axis sizes", HierarchyError)
        object.__setattr__(self, "sizes", sizes)
        names = self.names
        if not names:
            names = tuple(
                _DEFAULT_AXIS_NAMES[i] if i < len(_DEFAULT_AXIS_NAMES) else f"axis{i}"
                for i in range(len(sizes))
            )
        if len(names) != len(sizes):
            raise HierarchyError(
                f"got {len(names)} axis names for {len(sizes)} axis sizes"
            )
        if len(set(names)) != len(names):
            raise HierarchyError(f"axis names must be unique, got {list(names)}")
        object.__setattr__(self, "names", tuple(names))

    @classmethod
    def of(cls, *sizes: int, names: Sequence[str] = ()) -> "ParallelismAxes":
        """Convenience constructor: ``ParallelismAxes.of(4, 4)``."""
        return cls(tuple(sizes), tuple(names))

    @property
    def num_axes(self) -> int:
        return len(self.sizes)

    @property
    def total_parallelism(self) -> int:
        """Product of all axis sizes — the number of distinct program shards."""
        total = 1
        for s in self.sizes:
            total *= s
        return total

    def __len__(self) -> int:
        return self.num_axes

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)

    def __getitem__(self, index: int) -> int:
        return self.sizes[index]

    def describe(self) -> str:
        return "[" + ", ".join(f"{n}={s}" for n, s in zip(self.names, self.sizes)) + "]"


@dataclass(frozen=True)
class ReductionRequest:
    """A request to reduce over a subset of the parallelism axes.

    ``axes`` holds the indices of the reduction axes (paper: "reduction
    axes").  Devices that agree on every *non*-reduction axis coordinate and
    differ on some reduction-axis coordinate must end up holding the sum of
    each other's data.  The payload size is not part of the request: it is a
    field of :class:`~repro.query.PlanQuery`.
    """

    axes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.axes) == 0:
            raise HierarchyError("a reduction request needs at least one reduction axis")
        if len(set(self.axes)) != len(self.axes):
            raise HierarchyError(f"duplicate reduction axes in {list(self.axes)}")
        if any(a < 0 for a in self.axes):
            raise HierarchyError(f"reduction axes must be non-negative, got {list(self.axes)}")
        object.__setattr__(self, "axes", tuple(sorted(self.axes)))

    @classmethod
    def over(cls, *axes: int) -> "ReductionRequest":
        """Convenience constructor: ``ReductionRequest.over(0, 2)``."""
        return cls(tuple(axes))

    def validate_against(self, axes: ParallelismAxes) -> None:
        """Raise if any reduction axis index is out of range for ``axes``."""
        for a in self.axes:
            if a >= axes.num_axes:
                raise HierarchyError(
                    f"reduction axis {a} out of range for {axes.num_axes} parallelism axes"
                )

    def describe(self, axes: ParallelismAxes = None) -> str:
        if axes is None:
            return "reduce over axes " + ", ".join(str(a) for a in self.axes)
        return "reduce over " + ", ".join(axes.names[a] for a in self.axes)

"""Device state matrices and state contexts.

A :class:`DeviceState` is the boolean ``k x k`` matrix of paper Figure 7,
bit-packed into one Python integer: row ``r`` (= chunk ``r``) occupies bits
``[r*k, (r+1)*k)``, and bit ``c`` of a row set means device ``c``'s original
chunk ``r`` contributes to the value held for that chunk; a second ``k``-bit
integer marks the non-empty rows.  States stay hashable and the checks of the
Hoare rules become word arithmetic: union one ``|``, chunk-wise disjointness
one ``&``, the information order one ``& ~``, "same chunks held" an integer
compare, the resident payload fraction a popcount.

A :class:`StateContext` maps device indices to states.  Contexts are immutable
value objects; "updating" a context returns a new one.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

from repro.errors import SemanticsError

__all__ = ["DeviceState", "StateContext"]

_set = object.__setattr__
# ``int.bit_count`` needs Python 3.10; the package supports 3.9.
popcount = getattr(int, "bit_count", None) or (lambda mask: bin(mask).count("1"))

# Device counts whose repunit is kept; a process plans for a handful, and the
# repunit of k devices is k*k bits (32 kB at 512).
_REPUNITS_KEPT = 32


@functools.lru_cache(maxsize=_REPUNITS_KEPT)
def _repunit(num_chunks: int) -> int:
    """1 + 2^k + ... + 2^(k(k-1)) for k = ``num_chunks``: a k*k-bit division,
    done once per k instead of once per device state."""
    return ((1 << num_chunks * num_chunks) - 1) // ((1 << num_chunks) - 1)


class DeviceState:
    """The data a single device currently holds, as per-chunk contribution masks.

    ``bits`` is the packed matrix and ``present`` the mask of non-empty rows
    (layout above), both read-only.  The constructor validates ``rows``;
    states derived from valid states go through the trusting :meth:`_packed`.
    """

    __slots__ = ("num_chunks", "bits", "present")

    def __new__(cls, num_chunks: int, rows: Sequence[int]) -> "DeviceState":
        if num_chunks < 1:
            raise SemanticsError(f"num_chunks must be >= 1, got {num_chunks}")
        if len(rows) != num_chunks:
            raise SemanticsError(
                f"state has {len(rows)} rows but num_chunks={num_chunks}"
            )
        full = (1 << num_chunks) - 1
        bits = present = 0
        for r, mask in enumerate(rows):
            if mask < 0 or mask & ~full:
                raise SemanticsError(
                    f"row {r} mask {mask:#x} has bits outside the {num_chunks} devices"
                )
            if mask:
                bits |= mask << (r * num_chunks)
                present |= 1 << r
        return cls._packed(num_chunks, bits, present)

    @classmethod
    def _packed(cls, num_chunks: int, bits: int, present: int) -> "DeviceState":
        """Trusted constructor: ``bits``/``present`` must derive from valid states."""
        state = object.__new__(cls)
        _set(state, "num_chunks", num_chunks)
        _set(state, "bits", bits)
        _set(state, "present", present)
        return state

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DeviceState:
            return NotImplemented
        return self.bits == other.bits and self.num_chunks == other.num_chunks

    def __hash__(self) -> int:
        return hash((self.num_chunks, self.bits))

    def __reduce__(self):
        # Unpickling goes through the validating constructor.
        return (DeviceState, (self.num_chunks, self.rows))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _uniform(cls, num_chunks: int, mask: int) -> "DeviceState":
        """Every row equal to ``mask`` (a checked contributor mask), packed directly.

        ``mask`` times the repunit 1 + 2^k + ... + 2^(k(k-1)) lays it into all
        k rows at once; the validating constructor would loop over them.
        """
        if num_chunks < 1:
            raise SemanticsError(f"num_chunks must be >= 1, got {num_chunks}")
        if not mask:
            return cls._packed(num_chunks, 0, 0)
        return cls._packed(num_chunks, mask * _repunit(num_chunks), (1 << num_chunks) - 1)

    @classmethod
    def initial(cls, num_chunks: int, device: int) -> "DeviceState":
        """The initial state of ``device``: every chunk present, contributed only by itself."""
        if not 0 <= device < num_chunks:
            raise SemanticsError(f"device {device} out of range for {num_chunks} devices")
        # The repunit shifted into place: the same integer as _uniform's
        # product, without multiplying a k*k-bit number.
        return cls._packed(num_chunks, _repunit(num_chunks) << device, (1 << num_chunks) - 1)

    @classmethod
    def full(cls, num_chunks: int, contributors: Iterable[int] = None) -> "DeviceState":
        """Every chunk present and reduced over ``contributors`` (default: everyone)."""
        if contributors is None:
            mask = (1 << num_chunks) - 1
        else:
            mask = 0
            for c in contributors:
                if not 0 <= c < num_chunks:
                    raise SemanticsError(f"contributor {c} out of range")
                mask |= 1 << c
        return cls._uniform(num_chunks, mask)

    # ------------------------------------------------------------------ #
    # Queries used by the Hoare rules
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> Tuple[int, ...]:
        """One contributor bitmask per chunk (the unpacked form of ``bits``)."""
        k = self.num_chunks
        full = (1 << k) - 1
        bits = self.bits
        return tuple((bits >> (r * k)) & full for r in range(k))

    @property
    def non_empty_rows(self) -> Tuple[int, ...]:
        """Indices of rows with at least one contributor (the paper's ``rows`` function)."""
        present = self.present
        return tuple(r for r in range(self.num_chunks) if present >> r & 1)

    def chunk_fraction(self) -> float:
        """Fraction of the full payload currently materialised on this device.

        Used by the cost model: the payload is split into ``num_chunks`` equal
        chunks, so the bytes a device holds are proportional to the number of
        non-empty rows.
        """
        return popcount(self.present) / self.num_chunks


@dataclass(frozen=True)
class StateContext:
    """States of all devices participating in a synthesis problem."""

    states: Tuple[DeviceState, ...]

    def __post_init__(self) -> None:
        if len(self.states) == 0:
            raise SemanticsError("a state context needs at least one device")
        sizes = {s.num_chunks for s in self.states}
        if len(sizes) != 1:
            raise SemanticsError(f"all states must have the same size, got {sizes}")

    @classmethod
    def _trusted(cls, states: Sequence[DeviceState]) -> "StateContext":
        """Trusted constructor: ``states`` are non-empty and of one size (derived
        from a valid context), so ``__post_init__`` need not scan them again."""
        context = object.__new__(cls)
        _set(context, "states", tuple(states))
        return context

    @property
    def num_chunks(self) -> int:
        return self.states[0].num_chunks

    def __getitem__(self, device: int) -> DeviceState:
        return self.states[device]

    def __iter__(self) -> Iterator[DeviceState]:
        return iter(self.states)

    def replace(self, updates: Mapping[int, DeviceState]) -> "StateContext":
        """Return a new context with the given per-device states substituted."""
        new_states = list(self.states)
        num_devices = len(new_states)
        num_chunks = new_states[0].num_chunks
        for device, state in updates.items():
            if not 0 <= device < num_devices:
                raise SemanticsError(f"device {device} out of range")
            if state.num_chunks != num_chunks:
                raise SemanticsError("replacement state has the wrong size")
            new_states[device] = state
        # Every substituted state was size-checked above.
        return StateContext._trusted(new_states)

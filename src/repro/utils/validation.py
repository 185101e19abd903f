"""Shared argument-validation helpers.

These are intentionally tiny: they centralise error messages so that the
exceptions users see are consistent across subsystems.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ReproError

__all__ = ["check_positive_int", "check_positive_ints"]


def check_positive_int(value: int, name: str, exc: type = ReproError) -> int:
    """Raise ``exc`` unless ``value`` is an integer >= 1; return it otherwise."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value < 1:
        raise exc(f"{name} must be a positive integer, got {value!r}")
    return value


def check_positive_ints(values: Sequence[int], name: str, exc: type = ReproError) -> tuple:
    """Validate a non-empty sequence of positive integers; return it as a tuple."""
    if len(values) == 0:
        raise exc(f"{name} must be non-empty")
    return tuple(check_positive_int(v, f"{name}[{i}]", exc) for i, v in enumerate(values))


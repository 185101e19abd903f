"""Small self-contained utilities shared across the package.

The synthesis core relies on two pieces of integer machinery:

* ordered factorizations of level cardinalities (:mod:`repro.utils.factorization`),
  used to enumerate parallelism matrices, and
* mixed-radix encoding/decoding (:mod:`repro.utils.mixed_radix`), used to map
  between device coordinates, parallelism coordinates and flat device ids.

:mod:`repro.utils.tabulate` renders the evaluation tables without external
dependencies, and :mod:`repro.utils.validation` hosts shared argument checks.
"""

from repro.utils.factorization import (
    divisors,
    ordered_factorizations,
)
from repro.utils.mixed_radix import (
    MixedRadix,
    decode as mixed_radix_decode,
    encode as mixed_radix_encode,
)
from repro.utils.tabulate import format_table
from repro.utils.validation import (
    check_positive_int,
    check_positive_ints,
)

__all__ = [
    "divisors",
    "ordered_factorizations",
    "MixedRadix",
    "mixed_radix_encode",
    "mixed_radix_decode",
    "format_table",
    "check_positive_int",
    "check_positive_ints",
]

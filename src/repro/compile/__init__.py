"""Emission of lowered programs as XLA-style collective operations.

The paper's implementation lowers synthesized programs "into sequences of XLA
collective operations, which in turn result in sequences of NCCL calls".
:mod:`repro.compile.xla` provides the equivalent artefact for this
reproduction: an HLO-like textual module with one collective op per step
(including ``replica_groups``).  The parser the round-trip tests read it
back with lives in ``tests/oracles/xla.py``.
"""

from repro.compile.xla import XlaCollectiveOp, XlaModule, emit_xla_module

__all__ = [
    "XlaCollectiveOp",
    "XlaModule",
    "emit_xla_module",
]

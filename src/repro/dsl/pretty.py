"""Short mnemonic names for reduction programs (e.g. ``RS-AR-AG``).

Split from :mod:`repro.dsl.program` so that the core classes know nothing
about presentation.
"""

from __future__ import annotations

from repro.dsl.program import ReductionProgram
from repro.semantics.collectives import Collective

__all__ = ["program_mnemonic"]

_MNEMONICS = {
    Collective.ALL_REDUCE: "AR",
    Collective.REDUCE_SCATTER: "RS",
    Collective.ALL_GATHER: "AG",
    Collective.REDUCE: "R",
    Collective.BROADCAST: "B",
}


def program_mnemonic(program: ReductionProgram) -> str:
    """Short name built from the collectives, e.g. ``RS-AR-AG`` for BlueConnect."""
    if len(program) == 0:
        return "<empty>"
    return "-".join(_MNEMONICS[i.collective] for i in program)

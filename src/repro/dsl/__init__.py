"""The reduction-strategy DSL (paper §3.3).

A reduction *program* is a list of reduction *instructions*; each instruction
is a triple ``(slice, form, collective)``:

* the **slice** names a level of the synthesis hierarchy and partitions the
  devices into one group per instance of that level;
* the **form** decides how those groups communicate — within each group
  (:class:`InsideGroup`), position-wise across sibling groups under a common
  ancestor (:class:`Parallel`), or only the first such position-wise group
  (:class:`Master`);
* the **collective** is one of the five operations with the Hoare semantics of
  :mod:`repro.semantics.collectives`.

:mod:`repro.dsl.grouping` turns an instruction into concrete device groups for
a given synthesis hierarchy, and :mod:`repro.dsl.program` evaluates programs
over state contexts.
"""

from repro.dsl.forms import Form, InsideGroup, Master, Parallel
from repro.dsl.program import ReductionInstruction, ReductionProgram
from repro.dsl.grouping import derive_groups, enumerate_instructions

__all__ = [
    "Form",
    "InsideGroup",
    "Parallel",
    "Master",
    "ReductionInstruction",
    "ReductionProgram",
    "derive_groups",
    "enumerate_instructions",
]

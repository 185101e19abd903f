"""HLO-like emission of lowered reduction programs.

One lowered step becomes one collective instruction operating on a
per-device buffer of ``element_count`` elements:

.. code-block:: text

    HloModule p2_reduction, num_devices=32

    %step0 = f32[8388608] reduce-scatter(%param), replica_groups={{0,1,2,3},{4,5,6,7}}, channel_id=1
    %step1 = f32[2097152] all-reduce(%step0), replica_groups={{0,4},{1,5},{2,6},{3,7}}, channel_id=2
    %step2 = f32[8388608] all-gather(%step1), replica_groups={{0,1,2,3},{4,5,6,7}}, channel_id=3

    ROOT %result = f32[8388608] tuple(%step2)

The shapes track how the per-device payload shrinks after a ReduceScatter and
grows back after an AllGather, mirroring what XLA would emit.  ``reduce`` and
``broadcast`` steps are emitted with the group's first device as the root
(``root=<device>`` attribute), matching the convention used throughout the
paper and this library.

The parser that inverts the emission lives in ``tests/oracles/xla.py``: the
round-trip tests read a module back into a program and compare signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram

__all__ = [
    "XlaCollectiveOp",
    "XlaModule",
    "emit_xla_module",
]

_OPCODES = {
    Collective.ALL_REDUCE: "all-reduce",
    Collective.REDUCE_SCATTER: "reduce-scatter",
    Collective.ALL_GATHER: "all-gather",
    Collective.REDUCE: "reduce",
    Collective.BROADCAST: "broadcast",
}


@dataclass(frozen=True)
class XlaCollectiveOp:
    """One emitted collective instruction."""

    name: str
    opcode: str
    operand: str
    element_count: int
    dtype: str
    replica_groups: Tuple[Tuple[int, ...], ...]
    channel_id: int
    root: Optional[int] = None

    def render(self) -> str:
        groups = ",".join(
            "{" + ",".join(str(d) for d in group) + "}" for group in self.replica_groups
        )
        attributes = f"replica_groups={{{groups}}}, channel_id={self.channel_id}"
        if self.root is not None:
            attributes += f", root={self.root}"
        return (
            f"%{self.name} = {self.dtype}[{self.element_count}] "
            f"{self.opcode}(%{self.operand}), {attributes}"
        )


@dataclass(frozen=True)
class XlaModule:
    """A textual module: metadata plus the ordered collective ops."""

    name: str
    num_devices: int
    element_count: int
    dtype: str
    ops: Tuple[XlaCollectiveOp, ...]

    def render(self) -> str:
        lines = [f"HloModule {self.name}, num_devices={self.num_devices}", ""]
        for op in self.ops:
            lines.append(op.render())
        final_elements = self.ops[-1].element_count if self.ops else self.element_count
        final_operand = self.ops[-1].name if self.ops else "param"
        lines.append("")
        lines.append(
            f"ROOT %result = {self.dtype}[{final_elements}] tuple(%{final_operand})"
        )
        return "\n".join(lines)


def emit_xla_module(
    program: LoweredProgram,
    element_count: int,
    dtype: str = "f32",
    module_name: str = "p2_reduction",
) -> XlaModule:
    """Emit ``program`` as an XLA-style module over per-device buffers."""
    if element_count < 1:
        raise ReproError("element_count must be >= 1")
    ops: List[XlaCollectiveOp] = []
    operand = "param"
    current_elements = element_count
    for index, step in enumerate(program.steps):
        group_size = step.group_size
        if step.collective == Collective.REDUCE_SCATTER:
            if current_elements % group_size != 0:
                raise ReproError(
                    f"step {index}: {current_elements} elements are not divisible by the "
                    f"group size {group_size}"
                )
            current_elements //= group_size
        elif step.collective == Collective.ALL_GATHER:
            current_elements *= group_size
        root = step.groups[0][0] if step.collective.is_rooted else None
        op = XlaCollectiveOp(
            name=f"step{index}",
            opcode=_OPCODES[step.collective],
            operand=operand,
            element_count=current_elements,
            dtype=dtype,
            replica_groups=step.groups,
            channel_id=index + 1,
            root=root,
        )
        ops.append(op)
        operand = op.name
    return XlaModule(
        name=module_name,
        num_devices=program.num_devices,
        element_count=element_count,
        dtype=dtype,
        ops=tuple(ops),
    )

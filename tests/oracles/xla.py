"""Parse the HLO-like text :mod:`repro.compile.xla` emits back into a program.

The round-trip oracle: emitting a lowered program and parsing the text back
must rebuild a program with the same communication signature that still
validates against its placement.  Nothing in the package reads modules
back, so the parser lives with the tests.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.compile.xla import XlaCollectiveOp, XlaModule, _OPCODES
from repro.errors import ReproError
from repro.semantics.collectives import Collective
from repro.synthesis.lowering import LoweredProgram, LoweredStep

__all__ = ["collective_of", "parse_xla_module", "program_from_module"]

_COLLECTIVES = {opcode: op for op, opcode in _OPCODES.items()}
_HEADER_RE = re.compile(r"^HloModule\s+(?P<name>[\w.-]+),\s*num_devices=(?P<devices>\d+)\s*$")
_OP_RE = re.compile(
    r"^%(?P<name>\w+)\s*=\s*(?P<dtype>\w+)\[(?P<elements>\d+)\]\s*"
    r"(?P<opcode>[a-z-]+)\(%(?P<operand>\w+)\),\s*"
    r"replica_groups=\{(?P<groups>.*)\},\s*channel_id=(?P<channel>\d+)"
    r"(?:,\s*root=(?P<root>\d+))?\s*$"
)
_ROOT_RE = re.compile(r"^ROOT\s+%\w+\s*=.*$")


def _parse_groups(text: str) -> Tuple[Tuple[int, ...], ...]:
    groups: List[Tuple[int, ...]] = []
    for match in re.finditer(r"\{([^{}]*)\}", text):
        body = match.group(1).strip()
        if not body:
            raise ReproError("empty replica group")
        groups.append(tuple(int(token) for token in body.split(",")))
    if not groups:
        raise ReproError(f"could not parse replica groups from {text!r}")
    return tuple(groups)


def parse_xla_module(text: str) -> XlaModule:
    """Parse a module previously produced by :func:`emit_xla_module`."""
    name = ""
    num_devices = 0
    ops: List[XlaCollectiveOp] = []
    first_elements: Optional[int] = None
    dtype = "f32"
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or _ROOT_RE.match(line):
            continue
        header = _HEADER_RE.match(line)
        if header:
            name = header.group("name")
            num_devices = int(header.group("devices"))
            continue
        op_match = _OP_RE.match(line)
        if not op_match:
            raise ReproError(f"cannot parse line: {raw_line!r}")
        opcode = op_match.group("opcode")
        if opcode not in _COLLECTIVES:
            raise ReproError(f"unknown collective opcode {opcode!r}")
        op = XlaCollectiveOp(
            name=op_match.group("name"),
            opcode=opcode,
            operand=op_match.group("operand"),
            element_count=int(op_match.group("elements")),
            dtype=op_match.group("dtype"),
            replica_groups=_parse_groups(op_match.group("groups")),
            channel_id=int(op_match.group("channel")),
            root=int(op_match.group("root")) if op_match.group("root") else None,
        )
        dtype = op.dtype
        if first_elements is None:
            first_elements = op.element_count
            if collective_of(op) == Collective.REDUCE_SCATTER:
                first_elements = op.element_count * len(op.replica_groups[0])
        ops.append(op)
    if not name or num_devices == 0:
        raise ReproError("module header missing or malformed")
    return XlaModule(
        name=name,
        num_devices=num_devices,
        element_count=first_elements or 1,
        dtype=dtype,
        ops=tuple(ops),
    )


def program_from_module(module: XlaModule, label: str = "") -> LoweredProgram:
    """Rebuild a :class:`LoweredProgram` from a parsed module."""
    steps = tuple(
        LoweredStep(collective=collective_of(op), groups=op.replica_groups) for op in module.ops
    )
    return LoweredProgram(
        num_devices=module.num_devices,
        steps=steps,
        source=None,
        label=label or module.name,
    )


def collective_of(op: XlaCollectiveOp) -> Collective:
    """The collective an emitted instruction's opcode names."""
    if op.opcode not in _COLLECTIVES:
        raise ReproError(f"unknown collective opcode {op.opcode!r}")
    return _COLLECTIVES[op.opcode]

"""Lowering synthesized programs onto physical devices (paper §3.4).

A synthesized program talks about the *virtual* devices of its synthesis
hierarchy.  Lowering produces, for every instruction, the concrete groups of
*physical* device ids that execute the collective in that step:

* matrix positions covered by the hierarchy are taken from the virtual device,
* free (uncovered) positions — for the reduction-axis hierarchy these are all
  factors of the non-reduction axes — are swept over every possible value, so
  the synthesized grouping is replicated once per replica of the reduction
  pattern, all executing concurrently within the step.

:class:`LoweredProgram` is the artefact every downstream consumer uses: the
cost model prices it, the runtime executes it, and the evaluation harness
compares lowered programs produced from different synthesis hierarchies by
their :meth:`LoweredProgram.signature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.dsl.program import ReductionProgram
from repro.errors import LoweringError, SemanticsError
from repro.hierarchy.parallelism import ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.semantics.collectives import Collective, apply_step, step_error
from repro.semantics.goals import initial_context
from repro.semantics.state import DeviceState, StateContext, popcount
from repro.synthesis.hierarchy import SynthesisHierarchy
from repro.synthesis.synthesizer import SynthesizedProgram

__all__ = [
    "LoweredStep",
    "LoweredProgram",
    "StepTable",
    "forget_transitions",
    "lower_program",
    "lower_synthesized",
]


@dataclass(frozen=True)
class LoweredStep:
    """One step of a lowered program: concurrent device groups running one collective."""

    collective: Collective
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise LoweringError("a lowered step needs at least one device group")
        seen: set = set()
        for group in self.groups:
            if len(group) < 2:
                raise LoweringError(f"lowered group {group} has fewer than 2 devices")
            for device in group:
                if device in seen:
                    raise LoweringError(
                        f"device {device} appears in two groups of the same step"
                    )
                seen.add(device)
        # The devices are at hand here; an unpickled step computes them on first
        # use.  Two plain attributes, not a tuple or a materialized ``__dict__``:
        # a plan rebuilt from a cache entry keeps no extra container per step for
        # the collector to count and walk.
        object.__setattr__(self, "min_device", min(seen))
        object.__setattr__(self, "max_device", max(seen))

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        """Common group size (steps produced by lowering always have uniform groups)."""
        return len(self.groups[0])

    @property
    def devices(self) -> FrozenSet[int]:
        return frozenset(d for group in self.groups for d in group)

    @cached_property
    def min_device(self) -> int:
        """Lowest device id of the step, found once however many programs share
        the step; like :attr:`signature_entry`, outside ``==``, hash and pickle."""
        return min(self.devices)

    @cached_property
    def max_device(self) -> int:
        """Highest device id of the step (see :attr:`min_device`)."""
        return max(self.devices)

    @cached_property
    def signature_entry(self) -> Tuple[str, FrozenSet[Tuple[int, ...]]]:
        """This step's element of :meth:`LoweredProgram.signature`, built once."""
        return (self.collective.value, frozenset(self.groups))

    def __getstate__(self) -> Dict:
        return {"collective": self.collective, "groups": self.groups}

    def to_dict(self) -> Dict:
        """JSON-serializable form: the collective and its device groups."""
        return {
            "collective": self.collective.value,
            "groups": [list(group) for group in self.groups],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LoweredStep":
        """Rebuild a step from :meth:`to_dict` output (disjointness re-checked)."""
        return cls(
            collective=Collective(data["collective"]),
            groups=tuple(tuple(map(int, group)) for group in data["groups"]),
        )

    def describe(self) -> str:
        preview = ", ".join(
            "{" + ",".join(str(d) for d in group) + "}" for group in self.groups[:4]
        )
        suffix = "" if len(self.groups) <= 4 else f", ... ({len(self.groups)} groups)"
        return f"{self.collective} over {preview}{suffix}"


@dataclass(frozen=True)
class LoweredProgram:
    """A fully lowered reduction strategy over physical devices."""

    num_devices: int
    steps: Tuple[LoweredStep, ...]
    source: Optional[ReductionProgram] = None
    label: str = ""

    def __post_init__(self) -> None:
        # The bounds are cached per step, the verdict is this program's: one step
        # may be in range for one program and out of range for another.
        for step in self.steps:
            if step.min_device < 0 or step.max_device >= self.num_devices:
                device = step.min_device if step.min_device < 0 else step.max_device
                raise LoweringError(
                    f"device {device} out of range for {self.num_devices} devices"
                )

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def signature(self) -> Tuple:
        """Hashable identity of the communication pattern (order-sensitive in steps,
        order-insensitive in the groups within a step)."""
        return tuple(step.signature_entry for step in self.steps)

    # ------------------------------------------------------------------ #
    # Serialization (used by plan caching and the query API's JSON output)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-serializable form: label + per-step collective and groups.

        The synthesizer's ``source`` program is deliberately not persisted —
        it is search state, not part of the communication pattern.
        """
        return {"label": self.label, "steps": [step.to_dict() for step in self.steps]}

    @classmethod
    def from_dict(cls, data: Dict, num_devices: int) -> "LoweredProgram":
        """Rebuild a program from :meth:`to_dict` output (``source`` is ``None``)."""
        steps = tuple(LoweredStep.from_dict(step) for step in data["steps"])
        return cls(
            num_devices=num_devices, steps=steps, source=None, label=data.get("label", "")
        )

    @classmethod
    def from_table(
        cls, data: Dict, table: Sequence[LoweredStep], num_devices: int
    ) -> "LoweredProgram":
        """Rebuild a program from :meth:`StepTable.encode` output.

        Its steps are the ``table`` entries themselves, so programs rebuilt
        from one table share steps the way the encoded ones did.  An index
        that is not an ``int`` in ``range(len(table))`` raises
        :class:`~repro.errors.LoweringError`: ``-1`` or ``True`` would index a
        tuple without complaint and name the wrong step.
        """
        size = len(table)
        steps = []
        for index in data["steps"]:
            if type(index) is not int or index < 0 or index >= size:
                raise LoweringError(
                    f"step index {index!r} is not in a table of {size} steps"
                )
            steps.append(table[index])
        return cls(
            num_devices=num_devices,
            steps=tuple(steps),
            source=None,
            label=data.get("label", ""),
        )

    # ------------------------------------------------------------------ #
    # Semantic validation over the physical devices
    # ------------------------------------------------------------------ #
    def run_semantics(self, initial: StateContext) -> StateContext:
        """Run the Hoare semantics of every step starting from ``initial``."""
        return self._sweep(initial)[0]

    def _sweep(self, initial: StateContext) -> Tuple[StateContext, Tuple[Tuple[float, ...], ...]]:
        """One unmemoized pass of the Hoare rules over every step and group: the
        final context and the per-step, per-group fractions of :func:`_fractions`."""
        pre = initial.states
        fraction_of = _fraction_table(initial.num_chunks)
        fractions = []
        for step in self.steps:
            states = list(pre)
            failure = apply_step(step.collective, step.groups, states)
            if failure is not None:
                raise step_error(step.collective, step.groups, states, failure)
            fractions.append(_fractions(step, pre, fraction_of))
            pre = states
        return StateContext._trusted(pre), tuple(fractions)

    def validates_against(
        self, placement: DevicePlacement, request: ReductionRequest
    ) -> bool:
        """True if the program implements the requested reduction on every device.

        Every step's precondition is established on every physical device group
        from its exact pre-state; programs validated on one placement share the
        check of a repeated (pre-context, step) pair through the
        :class:`_Transitions` table this leaves on ``placement.hoare_transitions``.
        The table holds every context reached, as device states: the caller must
        end with :func:`forget_transitions` before the placement outlives the
        search (a plan's candidates keep theirs).  Nothing is shared across
        placements or without one (:meth:`run_semantics`,
        :meth:`pre_state_fractions`).  The chunk fractions stay on the program
        (floats, never states) so ``compile_profile`` does not repeat the pass.
        """
        if placement.num_devices != self.num_devices:
            raise SemanticsError(
                f"program is over {self.num_devices} devices but the placement has "
                f"{placement.num_devices}"
            )
        table = placement.hoare_transitions.get(request.axes)
        if table is None:
            table = placement.hoare_transitions[request.axes] = _Transitions(
                *placement.reduction_contexts(request)
            )
        walked = table.walk(self.steps)
        if walked is None:
            return False
        reaches_goal, fractions = walked
        object.__setattr__(self, "_pre_state_fractions", fractions)
        return reaches_goal

    @property
    def semantics_recorded(self) -> bool:
        """True once a completed sweep left its chunk fractions on the program."""
        return "_pre_state_fractions" in self.__dict__

    def pre_state_fractions(self) -> Tuple[Tuple[float, ...], ...]:
        """Per step, per group: the largest chunk fraction a member holds before it.

        Taken from :meth:`validates_against`'s sweep when there was one; else
        (``from_dict`` rebuilds, baselines) the semantics run here and an
        invalid step raises :class:`~repro.errors.InvalidCollectiveError`.
        """
        recorded = self.__dict__.get("_pre_state_fractions")
        if recorded is not None:
            return recorded
        return self._sweep(initial_context(self.num_devices))[1]

    def describe(self) -> str:
        name = self.label or (self.source.describe() if self.source else "<lowered>")
        steps = "; ".join(f"{s.collective}x{s.num_groups}(g={s.group_size})" for s in self.steps)
        return f"{name}: {steps}"


class StepTable:
    """The distinct steps of many programs, numbered in first-use order.

    A serialized plan writes each distinct :class:`LoweredStep` once (the
    plan's ``"steps"``) and each program as indices into that list.  Steps are
    compared by equality, so equal steps share an entry even when they are
    distinct objects.
    """

    def __init__(self) -> None:
        self.steps: List[LoweredStep] = []
        self._index: Dict[LoweredStep, int] = {}

    def index(self, step: LoweredStep) -> int:
        """The table index of ``step``, appending it on first use."""
        index = self._index.setdefault(step, len(self.steps))
        if index == len(self.steps):
            self.steps.append(step)
        return index

    def encode(self, program: LoweredProgram) -> Dict:
        """``program`` as its label and step indices (see :meth:`LoweredProgram.from_table`)."""
        return {"label": program.label, "steps": [self.index(s) for s in program.steps]}

    def to_dict(self) -> List[Dict]:
        """The table in JSON form, one :meth:`LoweredStep.to_dict` per entry."""
        return [step.to_dict() for step in self.steps]


def _fraction_table(num_chunks: int) -> List[float]:
    # Shared float objects: one per possible popcount, not one per group.
    return [count / num_chunks for count in range(num_chunks + 1)]


def _fractions(
    step: LoweredStep, pre: Sequence[DeviceState], fraction_of: List[float]
) -> Tuple[float, ...]:
    """Per group of ``step``, which succeeded on the pre-context ``pre``: the largest
    chunk fraction a member held before it — the one fact profile compilation needs
    from the semantics.  That is the first member's: the reducing rules require
    equal chunk sets, AllGather equally many chunks, and Broadcast every member
    below the root."""
    return tuple(fraction_of[popcount(pre[group[0]].present)] for group in step.groups)


class _Transitions:
    """The distinct Hoare transitions of one placement and reduction, each taken once.

    Programs of a matrix are walks over one small graph: a node ``(device states,
    out-edges)`` per context reached, an edge per (pre-context, step) pair.  The
    first program to walk an edge runs the step kernel on it; the edge keeps the
    post-context node and the per-group fractions for every later program.  An
    invalid step records nothing, so it fails the same way next time.
    ``steps`` counts edges walked, ``transitions`` edges checked.
    """

    def __init__(self, initial: StateContext, goal: StateContext) -> None:
        self.nodes: Dict[Tuple[int, ...], Tuple[Tuple[DeviceState, ...], Dict]] = {}
        self.root = self._node(initial.states)
        self.goal = self._node(goal.states)
        self.fraction_of = _fraction_table(initial.num_chunks)
        self.steps = self.transitions = 0

    def _node(self, states: Sequence[DeviceState]):
        # The packed matrices identify a context, and hash and compare as machine words.
        return self.nodes.setdefault(tuple(s.bits for s in states), (tuple(states), {}))

    def walk(
        self, steps: Sequence[LoweredStep]
    ) -> Optional[Tuple[bool, Tuple[Tuple[float, ...], ...]]]:
        """Whether ``steps`` lead from the initial context to the goal, and their
        fractions; ``None`` when some step's precondition fails."""
        node = self.root
        fractions: List[Tuple[float, ...]] = []
        for step in steps:
            edge = node[1].get(step)
            if edge is None:
                pre = node[0]
                states = list(pre)
                if apply_step(step.collective, step.groups, states) is not None:
                    return None
                edge = node[1][step] = (
                    self._node(states), _fractions(step, pre, self.fraction_of)
                )
                self.transitions += 1
            node, step_fractions = edge
            fractions.append(step_fractions)
        self.steps += len(steps)
        return node is self.goal, tuple(fractions)


def forget_transitions(placement: DevicePlacement) -> Tuple[int, int]:
    """Drop the tables validation left on ``placement``; (steps walked, transitions checked)."""
    tables = list(placement.hoare_transitions.values())
    placement.hoare_transitions.clear()
    return sum(t.steps for t in tables), sum(t.transitions for t in tables)


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
def lower_synthesized(
    synthesized: SynthesizedProgram,
    hierarchy: SynthesisHierarchy,
    placement: DevicePlacement,
    label: str = "",
) -> LoweredProgram:
    """Lower a synthesizer output (which carries its per-step virtual groups)."""
    return _lower(
        synthesized.program, synthesized.step_groups, hierarchy, placement, label
    )


def lower_program(
    program: ReductionProgram,
    hierarchy: SynthesisHierarchy,
    placement: DevicePlacement,
    label: str = "",
) -> LoweredProgram:
    """Lower an arbitrary DSL program by first deriving its virtual groups."""
    step_groups = tuple(
        instruction.groups(hierarchy.radices) for instruction in program
    )
    for instruction, groups in zip(program, step_groups):
        if not groups:
            raise LoweringError(
                f"instruction {instruction.describe(hierarchy.names)} induces no groups"
            )
    return _lower(program, step_groups, hierarchy, placement, label)


def _lower(
    program: ReductionProgram,
    step_groups: Sequence[Tuple[Tuple[int, ...], ...]],
    hierarchy: SynthesisHierarchy,
    placement: DevicePlacement,
    label: str,
) -> LoweredProgram:
    if placement.matrix != hierarchy.matrix:
        raise LoweringError("placement and synthesis hierarchy use different matrices")

    # Programs of one hierarchy draw their steps from one small instruction
    # alphabet: one LoweredStep per (collective, virtual grouping), shared.
    memo = hierarchy.__dict__.setdefault("_lowered_steps", {})
    steps: List[LoweredStep] = []
    for instruction, virtual_groups in zip(program, step_groups):
        key = (instruction.collective, virtual_groups)
        if key not in memo:
            memo[key] = LoweredStep(key[0], hierarchy.physical_groups(virtual_groups))
        steps.append(memo[key])
    return LoweredProgram(
        num_devices=placement.num_devices, steps=tuple(steps), source=program, label=label
    )

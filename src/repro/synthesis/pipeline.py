"""The end-to-end P² synthesis pipeline.

Given a system hierarchy, the parallelism axes and a reduction request, the
pipeline

1. enumerates every parallelism matrix (placement synthesis, §3.1),
2. builds the reduction-axis synthesis hierarchy for each matrix (§3.4),
3. synthesizes all valid reduction programs up to the size limit (§3.5),
4. lowers each program to physical device groups, and
5. validates every lowered program against the requested reduction.

The result is a list of :class:`PlacementCandidate`, each carrying its
:class:`ProgramCandidate` list.  Costing / ranking is deliberately *not* done
here — the evaluation package combines these candidates with a topology and a
cost model — so the pipeline stays a pure, deterministic function of its
arguments and is easy to test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.dsl.pretty import program_mnemonic
from repro.errors import SynthesisError
from repro.hierarchy.levels import SystemHierarchy
from repro.hierarchy.matrix import ParallelismMatrix, enumerate_parallelism_matrices
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest
from repro.hierarchy.placement import DevicePlacement
from repro.synthesis.hierarchy import (
    HierarchyVariant,
    SynthesisHierarchy,
    build_synthesis_hierarchy,
)
from repro.synthesis.lowering import LoweredProgram, forget_transitions, lower_synthesized
from repro.synthesis.synthesizer import (
    DEFAULT_MAX_PROGRAM_SIZE,
    SynthesisResult,
    Synthesizer,
)

__all__ = [
    "ProgramCandidate",
    "PlacementCandidate",
    "enumerate_search_matrices",
    "iter_placement_candidates",
    "lower_program_candidate",
    "synthesize_all",
]


def enumerate_search_matrices(
    hierarchy: SystemHierarchy,
    axes: ParallelismAxes,
    request: ReductionRequest,
    max_matrices: Optional[int] = None,
):
    """Validate the search inputs and enumerate the parallelism matrices.

    The shared preamble of every placement stream — the eager pipeline below
    and both synthesis/baseline candidate sources (:mod:`repro.search`) —
    so input validation and the no-placement error stay identical across
    paths.
    """
    request.validate_against(axes)
    matrices = enumerate_parallelism_matrices(hierarchy, axes, max_results=max_matrices)
    if not matrices:
        raise SynthesisError(
            f"no parallelism matrix exists for hierarchy {hierarchy.describe()} and "
            f"axes {axes.describe()} (device count {hierarchy.num_devices} vs "
            f"total parallelism {axes.total_parallelism})"
        )
    return matrices


@dataclass(frozen=True)
class ProgramCandidate:
    """One synthesized-and-lowered reduction strategy for a placement."""

    lowered: LoweredProgram
    mnemonic: str
    size: int
    is_default_all_reduce: bool = False


@dataclass
class PlacementCandidate:
    """A parallelism matrix together with every strategy synthesized for it.

    ``synthesis`` is ``None`` for candidates reconstructed from a cached plan
    (:mod:`repro.service.cache`): the search statistics are not persisted
    because the programs themselves are.
    """

    matrix: ParallelismMatrix
    placement: DevicePlacement
    hierarchy: SynthesisHierarchy
    synthesis: Optional[SynthesisResult] = None
    programs: List[ProgramCandidate] = field(default_factory=list)
    synthesis_seconds: float = 0.0
    # How much validation shared on this placement: lowered steps walked vs
    # the distinct (pre-context, step) Hoare transitions actually checked.
    semantic_steps: int = 0
    semantic_transitions: int = 0

    @property
    def num_programs(self) -> int:
        return len(self.programs)


def lower_program_candidate(
    synthesized,
    synthesis_hierarchy: SynthesisHierarchy,
    placement: DevicePlacement,
    request: ReductionRequest,
) -> ProgramCandidate:
    """Lower one synthesized program and wrap it as a :class:`ProgramCandidate`.

    Shared by the eager pipeline below and the streaming synthesis source
    (:class:`repro.search.SynthesisSource`), so both lower, validate and
    classify programs identically.  Validation failures raise
    :class:`~repro.errors.SynthesisError` because they indicate a bug, not a
    user error.
    """
    lowered = lower_synthesized(
        synthesized,
        synthesis_hierarchy,
        placement,
        label=synthesized.program.describe(synthesis_hierarchy.names),
    )
    if not lowered.validates_against(placement, request):
        raise SynthesisError(
            "synthesized program failed physical validation: "
            f"{synthesized.program.describe(synthesis_hierarchy.names)} on "
            f"matrix {placement.matrix.describe()}"
        )
    is_default = (
        len(synthesized.program) == 1
        and synthesized.program[0].collective.value == "AllReduce"
        and synthesized.program[0].slice_level == 0
    )
    return ProgramCandidate(
        lowered=lowered,
        mnemonic=program_mnemonic(synthesized.program),
        size=synthesized.size,
        is_default_all_reduce=is_default,
    )


def iter_placement_candidates(
    hierarchy: SystemHierarchy,
    axes: ParallelismAxes,
    request: ReductionRequest,
    max_program_size: int = DEFAULT_MAX_PROGRAM_SIZE,
    variant: HierarchyVariant = HierarchyVariant.REDUCTION_COLLAPSED,
    max_matrices: Optional[int] = None,
    matrix_indices: Optional[Sequence[int]] = None,
) -> Iterator[PlacementCandidate]:
    """The P² synthesis pipeline as a lazy per-placement stream.

    Placement enumeration and input validation happen eagerly (so bad inputs
    raise at the call site, exactly like :func:`synthesize_all`), but program
    synthesis — the expensive part — runs one matrix at a time as the
    returned iterator is pulled.  A consumer that stops early (the streaming
    search driver under a candidate or time budget) therefore never pays for
    the placements it does not look at.  Fully consuming the iterator yields
    exactly :func:`synthesize_all`'s candidates in the same order.

    Every lowered program is checked against the requested reduction over
    the physical devices; failures raise :class:`~repro.errors.SynthesisError`
    because they indicate a bug, not a user error.

    Parameters
    ----------
    max_matrices:
        Optional cap on the number of parallelism matrices considered.
    matrix_indices:
        Optional filter over the canonical (post ``max_matrices``) matrix
        enumeration: only matrices at these indices are synthesized, in
        enumeration order.  The sharded search driver
        (:mod:`repro.search.sharded`) uses this to run the *identical*
        per-matrix pipeline on a subset — same code path, same entries —
        so its per-shard results concatenate back into the serial stream.
    """
    matrices = enumerate_search_matrices(hierarchy, axes, request, max_matrices)
    if matrix_indices is not None:
        wanted = set(matrix_indices)
        matrices = [m for i, m in enumerate(matrices) if i in wanted]
    synthesizer = Synthesizer(max_program_size=max_program_size)

    def _generate() -> Iterator[PlacementCandidate]:
        for matrix in matrices:
            placement = DevicePlacement(matrix)
            synthesis_hierarchy = build_synthesis_hierarchy(matrix, request, variant)
            start = time.perf_counter()
            result = synthesizer.synthesize(synthesis_hierarchy)
            elapsed = time.perf_counter() - start

            programs = [
                lower_program_candidate(synthesized, synthesis_hierarchy, placement, request)
                for synthesized in result.programs
            ]
            # The transition table is search state: it must not stay
            # reachable from the candidate (and so from the plan).
            steps, transitions = forget_transitions(placement)

            yield PlacementCandidate(
                matrix=matrix,
                placement=placement,
                hierarchy=synthesis_hierarchy,
                synthesis=result,
                programs=programs,
                synthesis_seconds=elapsed,
                semantic_steps=steps,
                semantic_transitions=transitions,
            )

    return _generate()


def synthesize_all(
    hierarchy: SystemHierarchy,
    axes: ParallelismAxes,
    request: ReductionRequest,
    max_program_size: int = DEFAULT_MAX_PROGRAM_SIZE,
    variant: HierarchyVariant = HierarchyVariant.REDUCTION_COLLAPSED,
    max_matrices: Optional[int] = None,
) -> List[PlacementCandidate]:
    """Run the full P² synthesis pipeline eagerly (see :func:`iter_placement_candidates`)."""
    return list(
        iter_placement_candidates(
            hierarchy,
            axes,
            request,
            max_program_size=max_program_size,
            variant=variant,
            max_matrices=max_matrices,
        )
    )

"""Staged replay: one plan request re-enacted through each layer's public calls.

The traced pass may not touch ``src/``, so layers are timed from outside:
these functions perform the same sequence of public calls
``PlanningService.plan`` makes on its exhaustive serial path — fingerprint,
cache lookup, matrix enumeration, baselines, per-matrix synthesis, per-program
lowering and Hoare validation, profile compilation over distinct signatures,
one batch pricing kernel, ranking, serialization, cache store — each inside a
benchmark span.  The replayed plan must digest-equal the real one (checked by
the caller), which is what makes the per-layer times attributable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from harness import SpanRecorder
from workloads import Target

from repro.api import OptimizationPlan, rank_entries
from repro.baselines.allreduce import default_all_reduce
from repro.cost.batch import BatchPricer, price_programs
from repro.cost.model import CostModel
from repro.cost.profile import compile_profile
from repro.dsl.pretty import program_mnemonic
from repro.hierarchy.placement import DevicePlacement
from repro.search.driver import SearchReport
from repro.search.source import (
    ROLE_BASELINE,
    BaselineSource,
    SearchSpace,
    StrategyEntry,
    Watermark,
)
from repro.service.cache import PlanCache
from repro.service.fingerprint import plan_query_fingerprint
from repro.synthesis.hierarchy import build_synthesis_hierarchy
from repro.synthesis.lowering import lower_synthesized
from repro.synthesis.pipeline import (
    PlacementCandidate,
    ProgramCandidate,
    enumerate_search_matrices,
)
from repro.synthesis.synthesizer import Synthesizer

NODE_LIMIT = 500_000

# (profile, pricer) per program signature: what a long-lived service's
# simulator keeps between requests.  Pass a fresh dict per request to replay
# a fresh service, one dict per pass to replay a long-lived one.
ProfileCache = Dict[Tuple, Tuple[Any, BatchPricer]]


def staged_cold_plan(
    rec: SpanRecorder,
    target: Target,
    cache: PlanCache,
    profiles: ProfileCache,
) -> Tuple[OptimizationPlan, Dict[str, float]]:
    """Replay one plan-cache miss; returns the plan and the layer counts."""
    topology, query = target.topology, target.query
    cost_model = CostModel()
    counts: Dict[str, float] = {}
    with rec.span("service.plan"):
        with rec.span("service.fingerprint"):
            fingerprint = plan_query_fingerprint(topology, query, cost_model)
        with rec.span("service.cache_lookup_miss"):
            cache.lookup(fingerprint)
        with rec.span("search.run"):
            plan = _staged_search(rec, target, cost_model, profiles, counts)
        with rec.span("api.plan_to_dict"):
            plan_dict = plan.to_dict()
        with rec.span("service.cache_put"):
            cache.put(fingerprint, plan_dict)
    counts["api.plan_dict_bytes"] = len(json.dumps(plan_dict, separators=(",", ":")))
    if cache.directory is not None:
        counts["service.cache_entry_bytes"] = (
            cache.directory / f"{fingerprint}.json"
        ).stat().st_size
    return plan, counts


def _staged_search(
    rec: SpanRecorder,
    target: Target,
    cost_model: CostModel,
    profiles: ProfileCache,
    counts: Dict[str, float],
) -> OptimizationPlan:
    topology, query = target.topology, target.query
    request = query.request
    space = SearchSpace(topology=topology, cost_model=cost_model, query=query)

    with rec.span("search.baselines"):
        baseline_items = list(
            BaselineSource().entries(space, Watermark(), SearchReport())
        )
    with rec.span("hierarchy.enumerate"):
        matrices = enumerate_search_matrices(
            topology.hierarchy, query.axes, request, query.max_matrices
        )
    counts["hierarchy.matrices"] = len(matrices)

    synthesizer = Synthesizer(
        max_program_size=query.max_program_size, node_limit=NODE_LIMIT
    )
    entries = []
    candidates = []
    programs_found = nodes_expanded = validations = 0
    for matrix in matrices:
        with rec.span("hierarchy.placement"):
            placement = DevicePlacement(matrix)
            synthesis_hierarchy = build_synthesis_hierarchy(matrix, request)
        with rec.span("synthesis.search"):
            result = synthesizer.synthesize(synthesis_hierarchy)
        programs_found += len(result.programs)
        nodes_expanded += result.statistics.nodes_expanded
        programs = []
        for synthesized in result.programs:
            with rec.span("synthesis.lower"):
                lowered = lower_synthesized(
                    synthesized,
                    synthesis_hierarchy,
                    placement,
                    label=synthesized.program.describe(synthesis_hierarchy.names),
                )
            with rec.span("semantics.validate"):
                valid = lowered.validates_against(placement, request)
            validations += 1
            if not valid:
                raise AssertionError(f"staged replay: invalid program on {target.label}")
            program = synthesized.program
            programs.append(
                ProgramCandidate(
                    lowered=lowered,
                    mnemonic=program_mnemonic(program),
                    size=synthesized.size,
                    is_default_all_reduce=(
                        len(program) == 1
                        and program[0].collective.value == "AllReduce"
                        and program[0].slice_level == 0
                    ),
                )
            )
        candidate = PlacementCandidate(
            matrix=matrix,
            placement=placement,
            hierarchy=synthesis_hierarchy,
            synthesis=result,
            programs=programs,
        )
        candidates.append(candidate)
        entries.append(
            StrategyEntry(candidate, default_all_reduce(placement, request), "AR", True, 1)
        )
        entries.extend(
            StrategyEntry(candidate, p.lowered, p.mnemonic, False, p.size)
            for p in programs
            if not p.is_default_all_reduce
        )
    counts["synthesis.programs"] = programs_found
    counts["synthesis.nodes_expanded"] = nodes_expanded
    counts["semantics.validations"] = validations

    # One price per distinct communication pattern, baselines first — the
    # order the driver's serial pricer resolves profiles in.
    items = [(entry, ROLE_BASELINE) for entry in baseline_items]
    items += [(entry, "search") for entry in entries]
    distinct: Dict[Tuple, int] = {}
    pricers = []
    compiled = classes = 0
    for entry, _ in items:
        program = entry.lowered
        if program.num_steps == 0:
            continue
        signature = program.signature()
        if (program.num_devices, signature) in distinct:
            continue
        distinct[(program.num_devices, signature)] = len(pricers)
        known = profiles.get(signature)
        if known is None:
            with rec.span("cost.compile"):
                profile = compile_profile(program, topology)
            with rec.span("cost.price"):
                known = profiles[signature] = (profile, BatchPricer(profile))
            compiled += 1
            classes += profile.num_classes
        pricers.append(known[1])
    with rec.span("cost.price"):
        totals = price_programs(
            pricers, query.bytes_per_device, query.algorithm, cost_model
        )
    counts["cost.profiles_compiled"] = compiled
    counts["cost.profile_classes"] = classes
    counts["cost.cells_priced"] = len(pricers)
    priced = sum(1 for entry, _ in items if entry.lowered.num_steps)
    counts["search.duplicate_signature_share"] = (
        1.0 - len(pricers) / priced if priced else 0.0
    )

    baselines: Dict[str, float] = {}
    predicted = []
    for entry, role in items:
        program = entry.lowered
        seconds = (
            totals[distinct[(program.num_devices, program.signature())]]
            if program.num_steps
            else 0.0
        )
        if role == ROLE_BASELINE:
            known_seconds = baselines.get(entry.tag)
            if known_seconds is None or seconds < known_seconds:
                baselines[entry.tag] = seconds
        else:
            predicted.append(seconds)
    with rec.span("api.rank"):
        strategies = rank_entries(
            entries, predicted, bytes_per_device=query.bytes_per_device
        )
    return OptimizationPlan(
        axes=query.axes,
        request=request,
        bytes_per_device=query.bytes_per_device,
        algorithm=query.algorithm,
        strategies=strategies,
        candidates=candidates,
        baselines=baselines,
    )


def staged_hit(
    rec: SpanRecorder, target: Target, cache: PlanCache, tier: str
) -> Optional[OptimizationPlan]:
    """Replay one plan-cache hit on ``tier`` (``memory`` or ``disk``)."""
    with rec.span("service.plan"):
        with rec.span("service.fingerprint"):
            fingerprint = plan_query_fingerprint(
                target.topology, target.query, CostModel()
            )
        with rec.span(f"service.cache_lookup_{tier}"):
            cached, found = cache.lookup(fingerprint)
        if found != tier:
            raise AssertionError(f"staged hit: expected a {tier} hit, got {found!r}")
        with rec.span("api.plan_from_dict"):
            return OptimizationPlan.from_dict(cached)

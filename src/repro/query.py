"""First-class planning queries and outcomes — the currency of the planning API.

The paper's tool is a pure function from a *query* — (parallelism axes,
reduction request, payload, algorithm, search limits) against a fixed
topology — to a ranked plan.  :class:`PlanQuery` makes that query a frozen,
validated, serializable object, and :class:`PlanOutcome` wraps the resulting
:class:`~repro.api.OptimizationPlan` together with its provenance (timings,
fingerprint, cache tier, search report).

Anything that can answer queries — :class:`repro.api.P2`, the one planner,
with or without a plan cache (:class:`repro.service.engine.PlanningService`
is a ``P2`` with one by default) — implements the :class:`Planner`
protocol::

    outcome = planner.plan(query)            # one query
    outcomes = planner.plan_many(queries)    # a batch

``PlanQuery.to_dict``/``from_dict`` round-trip losslessly through JSON, so
queries travel over files, sockets and cache keys unchanged; the service's
fingerprints (:mod:`repro.service.fingerprint`) are built on exactly this
canonical dict.  ``from_dict`` also accepts the legacy CLI file shape
(``{"axes": [8, 4], "reduce": [0], "bytes": ...}``) and ``from_spec`` parses
the legacy ``AXES:REDUCE[:BYTES[:ALGO]]`` command-line strings, so every
pre-existing transport feeds the same object model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from typing import Protocol, runtime_checkable

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import QueryError
from repro.hierarchy.parallelism import ParallelismAxes, ReductionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard; see repro.api
    from repro.api import OptimizationPlan, RankedStrategy

__all__ = ["PlanQuery", "PlanOutcome", "Planner"]

DEFAULT_MAX_PROGRAM_SIZE = 5


@dataclass(frozen=True)
class PlanQuery:
    """One planning query: everything the pipeline consumes, nothing else.

    The constructor is forgiving about input shapes — axis/reduction
    sequences are coerced into :class:`ParallelismAxes` /
    :class:`ReductionRequest`, algorithm names into
    :class:`~repro.cost.nccl.NCCLAlgorithm` — and then validates the result,
    so an equal query always has one canonical in-memory form and
    ``PlanQuery.from_dict(q.to_dict()) == q`` holds exactly.
    """

    axes: ParallelismAxes
    request: ReductionRequest
    bytes_per_device: int
    algorithm: NCCLAlgorithm = NCCLAlgorithm.RING
    max_matrices: Optional[int] = None
    max_program_size: int = DEFAULT_MAX_PROGRAM_SIZE
    # Search budget (None = exhaustive).  Setting either one switches the
    # pipeline to the streaming branch-and-bound driver (repro.search):
    # max_candidates caps how many synthesized strategy entries are
    # considered, time_budget_s stops enumeration after a wall-clock budget,
    # and lower-bound pruning drops provably non-optimal candidates.  The
    # best strategy is unaffected by pruning (it is lossless); budgets
    # truncate the tail of the ranking.
    max_candidates: Optional[int] = None
    time_budget_s: Optional[float] = None
    # Cold-path parallelism: partition the placement space across this many
    # worker processes (repro.search.sharded).  Deliberately *not* part of
    # the query's identity — ``compare=False`` keeps it out of equality and
    # hashing, and to_dict() omits it, so fingerprints (and therefore the
    # service's plan cache) are shard-neutral.  That neutrality is sound
    # because exhaustive sharded plans are bit-identical to ``shards=1``
    # (enforced by tests/test_search_driver.py and the CI shard-equivalence
    # job) and budgeted plans are never cached.
    shards: int = field(default=1, compare=False)

    @property
    def has_search_budget(self) -> bool:
        """True when the query opts into the budgeted/pruned search driver."""
        return self.max_candidates is not None or self.time_budget_s is not None

    def __post_init__(self) -> None:
        axes = self.axes
        if not isinstance(axes, ParallelismAxes):
            axes = ParallelismAxes(tuple(axes))
            object.__setattr__(self, "axes", axes)
        request = self.request
        if not isinstance(request, ReductionRequest):
            request = ReductionRequest(tuple(request))
            object.__setattr__(self, "request", request)
        if not isinstance(self.algorithm, NCCLAlgorithm):
            try:
                object.__setattr__(self, "algorithm", NCCLAlgorithm(self.algorithm))
            except ValueError:
                raise QueryError(
                    f"unknown algorithm {self.algorithm!r}; expected one of "
                    f"{[a.value for a in NCCLAlgorithm]}"
                )
        payload = self.bytes_per_device
        if isinstance(payload, bool):
            raise QueryError(f"bytes_per_device must be an integer, got {payload!r}")
        if not isinstance(payload, int):
            try:
                coerced = int(payload)
            except (TypeError, ValueError, OverflowError):  # OverflowError: inf
                raise QueryError(
                    f"bytes_per_device must be an integer, got {payload!r}"
                )
            if coerced != payload:  # reject silent truncation of e.g. 100.9
                raise QueryError(
                    f"bytes_per_device must be an integer, got {payload!r}"
                )
            object.__setattr__(self, "bytes_per_device", coerced)
        if self.bytes_per_device <= 0:
            raise QueryError("bytes_per_device must be positive")
        if not isinstance(self.max_program_size, int) or self.max_program_size < 1:
            raise QueryError(
                f"max_program_size must be a positive integer, got {self.max_program_size!r}"
            )
        if self.max_matrices is not None and (
            not isinstance(self.max_matrices, int) or self.max_matrices < 1
        ):
            raise QueryError(
                f"max_matrices must be None or a positive integer, got {self.max_matrices!r}"
            )
        if self.max_candidates is not None and (
            isinstance(self.max_candidates, bool)
            or not isinstance(self.max_candidates, int)
            or self.max_candidates < 1
        ):
            raise QueryError(
                f"max_candidates must be None or a positive integer, got {self.max_candidates!r}"
            )
        if self.time_budget_s is not None:
            try:
                budget = float(self.time_budget_s)
            except (TypeError, ValueError):
                raise QueryError(
                    f"time_budget_s must be None or a positive number, got {self.time_budget_s!r}"
                )
            # NaN slips through a plain <= 0 check and would make every
            # elapsed-time comparison false: a "budgeted" query that never
            # stops.  Infinity is equally meaningless as a budget.
            if budget <= 0 or budget != budget or budget == float("inf"):
                raise QueryError(
                    f"time_budget_s must be None or a positive finite number, "
                    f"got {self.time_budget_s!r}"
                )
            object.__setattr__(self, "time_budget_s", budget)
        if (
            isinstance(self.shards, bool)
            or not isinstance(self.shards, int)
            or self.shards < 1
        ):
            raise QueryError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        request.validate_against(axes)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serializable form (stable key order, plain values).

        This dict *is* the canonical query the service fingerprints: change
        it and :data:`repro.service.fingerprint.FINGERPRINT_VERSION` must be
        bumped.  ``shards`` is deliberately absent — it parallelizes the cold
        path without changing what the query *means* (exhaustive sharded
        plans are bit-identical to serial ones), so it must not perturb
        fingerprints or cache keys.
        """
        return {
            "axes": {"sizes": list(self.axes.sizes), "names": list(self.axes.names)},
            "request": {"axes": list(self.request.axes)},
            "bytes_per_device": int(self.bytes_per_device),
            "algorithm": self.algorithm.value,
            "max_matrices": None if self.max_matrices is None else int(self.max_matrices),
            "max_program_size": int(self.max_program_size),
            "max_candidates": (
                None if self.max_candidates is None else int(self.max_candidates)
            ),
            "time_budget_s": (
                None if self.time_budget_s is None else float(self.time_budget_s)
            ),
        }

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        bytes_per_device: Optional[int] = None,
        max_matrices: Optional[int] = None,
        max_program_size: Optional[int] = None,
    ) -> "PlanQuery":
        """Build a query from :meth:`to_dict` output or the legacy file shape.

        The keyword arguments are *defaults*: they apply only when ``data``
        does not carry the corresponding key (the legacy
        ``{"axes": [8, 4], "reduce": [0], "bytes": ...}`` entries usually
        omit the payload and the search limits).
        """
        if not isinstance(data, Mapping):
            raise QueryError(f"a plan query must be a JSON object, got {type(data).__name__}")
        try:
            axes_field = data["axes"]
            if isinstance(axes_field, Mapping):
                axes = ParallelismAxes(
                    tuple(axes_field["sizes"]), tuple(axes_field.get("names") or ())
                )
            else:
                axes = ParallelismAxes(tuple(axes_field))
            if "request" in data:
                request_field = data["request"]
                reduce_axes = (
                    request_field["axes"]
                    if isinstance(request_field, Mapping)
                    else request_field
                )
            elif "reduce" in data:
                reduce_axes = data["reduce"]
            else:
                raise KeyError("request")
            request = ReductionRequest(tuple(reduce_axes))
            payload = data.get("bytes_per_device", data.get("bytes", bytes_per_device))
            if payload is None:
                raise QueryError(
                    "the query carries no payload: provide a 'bytes_per_device' "
                    "entry or a default"
                )
            limit = (
                data["max_matrices"] if "max_matrices" in data else max_matrices
            )
            size = (
                data["max_program_size"]
                if "max_program_size" in data
                else (
                    max_program_size
                    if max_program_size is not None
                    else DEFAULT_MAX_PROGRAM_SIZE
                )
            )
            return cls(
                axes=axes,
                request=request,
                bytes_per_device=payload,
                algorithm=data.get("algorithm", NCCLAlgorithm.RING),
                max_matrices=limit,
                max_program_size=size,
                max_candidates=data.get("max_candidates"),
                time_budget_s=data.get("time_budget_s"),
                # Transport-only: a wire/file query may ask for a sharded
                # cold path even though to_dict() never emits the key.
                shards=data.get("shards", 1),
            )
        except QueryError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise QueryError(f"bad plan query dict: {error!r}")

    def to_json(self) -> str:
        """Compact JSON encoding of :meth:`to_dict` (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PlanQuery":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise QueryError(f"bad plan query JSON: {error}")
        return cls.from_dict(data)

    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        bytes_per_device: Optional[int] = None,
        max_matrices: Optional[int] = None,
        max_program_size: Optional[int] = None,
    ) -> "PlanQuery":
        """Parse a legacy ``AXES:REDUCE[:BYTES[:ALGO]]`` command-line spec.

        Examples: ``8,4:0:67108864`` or ``2,16:1:1048576:tree``.  An omitted
        or empty BYTES falls back to ``bytes_per_device``.
        """
        parts = spec.split(":")
        if len(parts) not in (2, 3, 4):
            raise QueryError(
                f"a query spec must look like AXES:REDUCE[:BYTES[:ALGO]], got {spec!r}"
            )
        try:
            axes = tuple(int(a) for a in parts[0].split(",") if a != "")
            reduce_axes = tuple(int(a) for a in parts[1].split(",") if a != "")
            payload = (
                int(parts[2]) if len(parts) >= 3 and parts[2] else bytes_per_device
            )
        except ValueError as error:
            raise QueryError(f"bad query spec {spec!r}: {error}")
        if payload is None:
            raise QueryError(
                f"query spec {spec!r} omits BYTES and no default payload was given"
            )
        return cls(
            axes=ParallelismAxes(axes),
            request=ReductionRequest(reduce_axes),
            bytes_per_device=payload,
            algorithm=parts[3] if len(parts) == 4 else NCCLAlgorithm.RING,
            max_matrices=max_matrices,
            max_program_size=(
                max_program_size
                if max_program_size is not None
                else DEFAULT_MAX_PROGRAM_SIZE
            ),
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        limits = []
        if self.max_matrices is not None:
            limits.append(f"max_matrices={self.max_matrices}")
        if self.max_candidates is not None:
            limits.append(f"max_candidates={self.max_candidates}")
        if self.time_budget_s is not None:
            limits.append(f"time_budget_s={self.time_budget_s:g}")
        if self.shards > 1:
            limits.append(f"shards={self.shards}")
        suffix = f" ({', '.join(limits)})" if limits else ""
        return (
            f"{self.axes.describe()} {self.request.describe(self.axes)}, "
            f"{self.bytes_per_device / 1e6:.0f} MB, {self.algorithm}{suffix}"
        )


@dataclass
class PlanOutcome:
    """One answered query: the ranked plan plus how it was produced.

    ``synthesis_seconds``/``evaluation_seconds`` are the cold-path timings
    :func:`repro.api.compute_plan` measures (zero on a cache hit);
    ``fingerprint``/``cache_tier`` record provenance so callers can monitor
    hit rates and latency without instrumenting the pipeline.
    ``profile_hits``/``profile_misses`` count the simulator's compiled-profile
    cache traffic while evaluating this query (zero on a plan-cache hit):
    hits are candidate simulations answered by re-pricing an already compiled
    :class:`~repro.cost.profile.SimulationProfile` instead of re-running
    semantics and contention analysis.

    ``search`` is the streaming driver's :class:`~repro.search.SearchReport`
    as a JSON-ready dict (candidates considered / pruned / bound-rejected,
    budget stops) and ``synthesis_stats`` the aggregated synthesizer
    :class:`~repro.synthesis.pruning.SearchStatistics`; both are ``None`` on
    plan-cache hits, where no search ran.

    ``trace_id`` ties the outcome to its request trace in the telemetry
    spine (:mod:`repro.obs`): it is the id of the root span the planner
    opened for this query, so a ``--trace-out`` timeline can be joined
    against sweep records and service logs.  ``None`` when telemetry was
    disabled.
    """

    query: PlanQuery
    plan: "OptimizationPlan"
    synthesis_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    total_seconds: float = 0.0
    fingerprint: Optional[str] = None
    cache_tier: Optional[str] = None  # "memory" | "disk" | None (cold)
    profile_hits: int = 0
    profile_misses: int = 0
    search: Optional[Dict[str, Any]] = None
    synthesis_stats: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None

    @property
    def cache_hit(self) -> bool:
        return self.cache_tier is not None

    @property
    def best(self) -> "RankedStrategy":
        return self.plan.best

    @property
    def num_candidates(self) -> int:
        return len(self.plan.candidates)

    @property
    def num_strategies(self) -> int:
        return len(self.plan.strategies)

    def provenance(self) -> Dict[str, Any]:
        """How this outcome was produced, as one JSON-ready dict.

        Consumers that persist outcomes next to other data (the sweep
        engine's JSONL records, monitoring hooks) embed exactly this dict
        rather than re-deriving timings from the plan.
        """
        return {
            "fingerprint": self.fingerprint,
            "cache_tier": self.cache_tier,
            "cache_hit": self.cache_hit,
            "synthesis_seconds": self.synthesis_seconds,
            "evaluation_seconds": self.evaluation_seconds,
            "total_seconds": self.total_seconds,
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "search": self.search,
            "synthesis_stats": self.synthesis_stats,
            "trace_id": self.trace_id,
        }

    def baseline_speedups(self) -> Dict[str, Optional[float]]:
        """Predicted speedup of the best strategy over each paper baseline.

        Keys are the baseline names priced by the search driver's
        :class:`~repro.search.BaselineSource` (``all_reduce`` = the flat
        per-group ring AllReduce, ``hierarchical`` =
        Reduce-AllReduce-Broadcast, ``blueconnect`` =
        ReduceScatter-AllReduce-AllGather), each reported at its best
        placement.  A zero-cost best strategy against a costly baseline is
        ``None`` (infinite), mirroring :meth:`to_dict`'s handling of
        ``speedup_over_default``.  Empty for plans computed before baselines
        became first-class candidates.
        """
        best = self.plan.best.predicted_seconds if self.plan.strategies else 0.0
        speedups: Dict[str, Optional[float]] = {}
        for name, seconds in self.plan.baselines.items():
            if best <= 0:
                speedups[name] = None if seconds > 0 else 1.0
            else:
                speedups[name] = seconds / best
        return speedups

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: query + plan + provenance.

        ``speedup_over_default`` is ``None`` when it is infinite (a zero-cost
        best strategy) so the encoding stays strict JSON; the per-baseline
        speedups use the same convention.
        """
        speedup = self.plan.speedup_over_default()
        data = {
            "query": self.query.to_dict(),
            "plan": self.plan.to_dict(),
            "num_candidates": self.num_candidates,
            "num_strategies": self.num_strategies,
            "speedup_over_default": speedup if speedup != float("inf") else None,
            "baseline_speedups": self.baseline_speedups(),
        }
        data.update(self.provenance())
        return data

    def describe(self) -> str:
        source = self.cache_tier or "cold"
        detail = (
            f"synthesis {self.synthesis_seconds * 1e3:.1f} ms, "
            f"evaluation {self.evaluation_seconds * 1e3:.1f} ms"
            if not self.cache_hit
            else "cached plan"
        )
        return (
            f"[{source}] {self.num_strategies} strategies over "
            f"{self.num_candidates} placements in {self.total_seconds * 1e3:.1f} ms ({detail})"
        )


@runtime_checkable
class Planner(Protocol):
    """Anything that answers :class:`PlanQuery` objects.

    :class:`repro.api.P2` is the implementation (a
    :class:`repro.service.engine.PlanningService` is a ``P2`` with a plan
    cache); callers — sweep runners, transports,
    :func:`repro.planner.plan_placements` — can hold any planner behind one
    type.
    """

    def plan(self, query: PlanQuery) -> PlanOutcome:
        """Answer one query."""
        ...

    def plan_many(self, queries: Sequence[PlanQuery]) -> List[PlanOutcome]:
        """Answer a batch of queries, in order."""
        ...

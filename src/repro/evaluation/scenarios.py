"""Scenario grids: the declarative front end of the sweep engine.

The paper's headline claim is breadth — synthesized plans beat hand-written
baselines across many topologies, payload sizes and workloads — so the
evaluation layer needs a way to *name* large families of experiments and
expand them into :class:`~repro.query.PlanQuery` streams that any
:class:`~repro.query.Planner` can answer.

* A :class:`Scenario` is one concrete experiment: an
  :class:`~repro.evaluation.config.ExperimentConfig` (topology builder,
  parallelism shape, reduction workload, algorithm, payload) plus optional
  search limits.  ``scenario.query()`` is the :class:`PlanQuery` it denotes.
* A :class:`ScenarioGrid` expands axis products — topology builders
  (system × node count) × parallelism shapes × reduction workloads ×
  payload scales × NCCL algorithms — into a deterministic scenario list,
  with ``include``/``exclude`` fnmatch filters over scenario names.
* :data:`PRESETS` holds the named scenario lists the CLI and CI use:
  ``smoke`` (seconds, prediction-only), ``paper-table2`` (the paper's
  configuration table: the Table 3 placement shapes plus the Table 4
  synthesis rows), ``gcp-scaleout`` (node-count scaling on both GCP
  systems), ``payload-ladder`` (payload sensitivity on one shape) and
  ``appendix`` (the full appendix sweep).

Invalid combinations (a shape whose product does not match the device
count, a reduction axis a shape does not have) are *skipped*, not errors:
a grid deliberately over-approximates and keeps only what type-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cost.nccl import NCCLAlgorithm
from repro.errors import EvaluationError
from repro.evaluation.config import (
    ExperimentConfig,
    SystemKind,
    _axis_shapes_for,
    appendix_configs,
    table3_configs,
    table4_configs,
)
from repro.query import PlanQuery
from repro.topology.topology import MachineTopology

__all__ = [
    "Scenario",
    "ScenarioGrid",
    "scenarios_from_configs",
    "preset_names",
    "PRESETS",
]


@dataclass(frozen=True)
class Scenario:
    """One concrete experiment of a sweep: a config plus search limits.

    The scenario *is* the unit of sweep provenance: its ``name`` keys JSONL
    checkpoints, and :meth:`query` is the exact :class:`PlanQuery` the sweep
    runner sends to a :class:`~repro.query.Planner`.
    """

    config: ExperimentConfig
    max_matrices: Optional[int] = None
    # Optional search budget (PlanQuery.max_candidates / time_budget_s):
    # switches the scenario's query onto the streaming branch-and-bound
    # driver.  ``repro-cli sweep --max-candidates/--time-budget`` set these
    # uniformly across a sweep.
    max_candidates: Optional[int] = None
    time_budget_s: Optional[float] = None
    # Shard width for cold-path planning (PlanQuery.shards, fingerprint
    # neutral); ``repro-cli sweep --shards`` sets it uniformly.
    shards: int = 1

    @property
    def name(self) -> str:
        return self.config.name

    def topology_key(self) -> str:
        """Groups scenarios that share one topology (one planner each)."""
        return f"{self.config.system.value}-{self.config.num_nodes}n"

    def topology(self) -> MachineTopology:
        return self.config.topology()

    def query(self) -> PlanQuery:
        """The :class:`PlanQuery` this scenario denotes."""
        return PlanQuery(
            axes=self.config.parallelism(),
            request=self.config.request(),
            bytes_per_device=self.config.bytes_per_device,
            algorithm=self.config.algorithm,
            max_matrices=self.max_matrices,
            max_program_size=self.config.max_program_size,
            max_candidates=self.max_candidates,
            time_budget_s=self.time_budget_s,
            shards=self.shards,
        )


def _format_scale(scale: float) -> str:
    """A stable, filename-safe rendering of a payload scale (1.0 -> "1")."""
    text = f"{scale:g}"
    return text.replace(".", "p")


@dataclass(frozen=True)
class ScenarioGrid:
    """An axis-product of scenarios, expanded deterministically.

    Axes
    ----
    systems × node_counts:
        The topology builders (:meth:`SystemKind.build`).
    shapes:
        Parallelism shapes.  Explicit tuples apply only to topologies whose
        device count matches their product; the string ``"auto"`` derives
        the paper's §4 factorization protocol per topology
        (:func:`repro.evaluation.config._axis_shapes_for`, which pairs each
        shape with its reduction axes); ``"flat"`` uses the single-axis
        shape ``(num_devices,)``.
    workloads:
        Reduction-axis tuples tried against every shape (out-of-range axes
        are skipped).  Ignored for ``"auto"`` shapes, which carry their own.
    payload_scales × algorithms:
        Payload fractions of the paper's payload and NCCL algorithms.

    ``include``/``exclude`` are fnmatch patterns over scenario names: a
    non-empty ``include`` keeps only matching scenarios, ``exclude`` then
    drops matches.  Expansion order is the nested axis order above and is
    part of the grid's contract (checkpoint files rely on it being stable).
    """

    name: str = "grid"
    systems: Tuple[SystemKind, ...] = (SystemKind.A100,)
    node_counts: Tuple[int, ...] = (2,)
    shapes: Union[str, Tuple[Tuple[int, ...], ...]] = "auto"
    workloads: Tuple[Tuple[int, ...], ...] = ((0,),)
    payload_scales: Tuple[float, ...] = (1.0,)
    algorithms: Tuple[NCCLAlgorithm, ...] = (NCCLAlgorithm.RING,)
    max_program_size: int = 5
    max_matrices: Optional[int] = None
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.shapes, str) and self.shapes not in ("auto", "flat"):
            raise EvaluationError(
                f"shapes must be 'auto', 'flat' or explicit tuples, got {self.shapes!r}"
            )
        if not self.systems or not self.node_counts:
            raise EvaluationError("a grid needs at least one system and node count")
        if not self.payload_scales or not self.algorithms:
            raise EvaluationError("a grid needs at least one payload scale and algorithm")

    # ------------------------------------------------------------------ #
    def _shape_pairs(
        self, system: SystemKind, nodes: int
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(shape, reduction axes) pairs for one topology, invalid ones dropped."""
        total = nodes * system.gpus_per_node
        if self.shapes == "auto":
            return _axis_shapes_for(total)
        if self.shapes == "flat":
            shapes: List[Tuple[int, ...]] = [(total,)]
        else:
            shapes = [
                shape
                for shape in self.shapes
                if _product(shape) == total
            ]
        pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        for shape in shapes:
            for workload in self.workloads:
                if all(0 <= axis < len(shape) for axis in workload):
                    pairs.append((shape, tuple(workload)))
        return pairs

    def _matches(self, name: str) -> bool:
        if self.include and not any(fnmatch(name, p) for p in self.include):
            return False
        return not any(fnmatch(name, p) for p in self.exclude)

    def expand(self) -> List[Scenario]:
        """Every scenario of the grid, in the deterministic axis order."""
        scenarios: List[Scenario] = []
        for system in self.systems:
            for nodes in self.node_counts:
                for shape, workload in self._shape_pairs(system, nodes):
                    for scale in self.payload_scales:
                        for algorithm in self.algorithms:
                            name = (
                                f"{self.name}-{system.value}-{nodes}n-"
                                f"{'x'.join(str(a) for a in shape)}-"
                                f"r{''.join(str(a) for a in workload)}-"
                                f"s{_format_scale(scale)}-{algorithm.value}"
                            )
                            if not self._matches(name):
                                continue
                            config = ExperimentConfig(
                                name=name,
                                system=system,
                                num_nodes=nodes,
                                axes=shape,
                                reduction_axes=workload,
                                algorithm=algorithm,
                                payload_scale=scale,
                                max_program_size=self.max_program_size,
                            )
                            scenarios.append(
                                Scenario(config=config, max_matrices=self.max_matrices)
                            )
        return scenarios

    def scaled(self, payload_scale: float) -> "ScenarioGrid":
        """A copy with every payload scale replaced by ``payload_scale``."""
        return replace(self, payload_scales=(payload_scale,))

    # ------------------------------------------------------------------ #
    # Serialization — ``repro-cli sweep --grid FILE.json`` reads this form.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGrid":
        if not isinstance(data, Mapping):
            raise EvaluationError(
                f"a scenario grid must be a JSON object, got {type(data).__name__}"
            )
        try:
            shapes = data.get("shapes", "auto")
            if not isinstance(shapes, str):
                shapes = tuple(tuple(int(a) for a in shape) for shape in shapes)
            return cls(
                name=data.get("name", "grid"),
                systems=tuple(SystemKind(s) for s in data.get("systems", ["a100"])),
                node_counts=tuple(int(n) for n in data.get("node_counts", [2])),
                shapes=shapes,
                workloads=tuple(
                    tuple(int(a) for a in w) for w in data.get("workloads", [[0]])
                ),
                payload_scales=tuple(
                    float(s) for s in data.get("payload_scales", [1.0])
                ),
                algorithms=tuple(
                    NCCLAlgorithm(a) for a in data.get("algorithms", ["ring"])
                ),
                max_program_size=int(data.get("max_program_size", 5)),
                max_matrices=(
                    None
                    if data.get("max_matrices") is None
                    else int(data["max_matrices"])
                ),
                include=_patterns(data.get("include", ())),
                exclude=_patterns(data.get("exclude", ())),
            )
        except EvaluationError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise EvaluationError(f"bad scenario grid dict: {error!r}")

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ScenarioGrid":
        try:
            data = json.loads(Path(path).read_bytes().decode("utf-8"))
        except RecursionError:
            raise EvaluationError(f"{path}: nests deeper than the JSON parser can descend")
        except ValueError as error:  # invalid JSON or invalid UTF-8
            raise EvaluationError(f"{path}: not valid JSON: {error}")
        return cls.from_dict(data)


def _patterns(value: Any) -> Tuple[str, ...]:
    """Normalize a filter field: a bare string is one pattern, not characters."""
    if isinstance(value, str):
        return (value,)
    return tuple(str(pattern) for pattern in value)


def _product(values: Sequence[int]) -> int:
    total = 1
    for value in values:
        total *= value
    return total


def scenarios_from_configs(
    configs: Sequence[ExperimentConfig], max_matrices: Optional[int] = None
) -> List[Scenario]:
    """Wrap existing :class:`ExperimentConfig` lists (the paper tables) as scenarios."""
    seen: Dict[str, ExperimentConfig] = {}
    scenarios: List[Scenario] = []
    for config in configs:
        if config.name in seen:
            if seen[config.name] != config:
                raise EvaluationError(
                    f"two different configs share the name {config.name!r}"
                )
            continue  # exact duplicate: keep the first occurrence only
        seen[config.name] = config
        scenarios.append(Scenario(config=config, max_matrices=max_matrices))
    return scenarios


# --------------------------------------------------------------------------- #
# Named presets
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Preset:
    """A named scenario family plus the runner settings it is meant for."""

    name: str
    description: str
    default_payload_scale: float
    measure_programs: bool = True
    measurement_runs: int = 3
    builder: Any = field(default=None, compare=False)

    def scenarios(self, payload_scale: Optional[float] = None) -> List[Scenario]:
        scale = payload_scale if payload_scale is not None else self.default_payload_scale
        return self.builder(scale)


def _smoke_scenarios(scale: float) -> List[Scenario]:
    grid = ScenarioGrid(
        name="smoke",
        systems=(SystemKind.A100,),
        node_counts=(2,),
        shapes=((8, 4), (32,)),
        workloads=((0,), (1,)),
        payload_scales=(scale,),
        algorithms=(NCCLAlgorithm.RING,),
        max_program_size=3,
    )
    return grid.expand()


def _paper_table2_scenarios(scale: float) -> List[Scenario]:
    # The paper's configuration table (its Table 2) is the union of the
    # placement shapes evaluated in Table 3 and the synthesis rows of Table 4.
    return scenarios_from_configs(table3_configs(scale) + table4_configs(scale))


def _gcp_scaleout_scenarios(scale: float) -> List[Scenario]:
    grid = ScenarioGrid(
        name="gcp-scaleout",
        systems=(SystemKind.A100, SystemKind.V100),
        node_counts=(1, 2, 4),
        shapes="flat",
        workloads=((0,),),
        payload_scales=(scale,),
        algorithms=(NCCLAlgorithm.RING, NCCLAlgorithm.TREE),
        max_program_size=4,
    )
    return grid.expand()


def _payload_ladder_scenarios(scale: float) -> List[Scenario]:
    # ``scale`` multiplies every rung, so the ladder keeps its four decades
    # and scenario count; ``--payload-scale 0.01`` just shifts it down 100x.
    rungs = tuple(r * scale for r in (0.001, 0.01, 0.1, 1.0))
    grid = ScenarioGrid(
        name="payload-ladder",
        systems=(SystemKind.A100,),
        node_counts=(2,),
        shapes=((8, 4),),
        workloads=((0,),),
        payload_scales=rungs,
        algorithms=(NCCLAlgorithm.RING, NCCLAlgorithm.TREE),
        max_program_size=4,
    )
    return grid.expand()


def _appendix_scenarios(scale: float) -> List[Scenario]:
    return scenarios_from_configs(appendix_configs(scale))


PRESETS: Dict[str, _Preset] = {
    preset.name: preset
    for preset in (
        _Preset(
            name="smoke",
            description="seconds-scale CI smoke grid (prediction-only)",
            default_payload_scale=0.002,
            measure_programs=False,
            measurement_runs=1,
            builder=_smoke_scenarios,
        ),
        _Preset(
            name="paper-table2",
            description="the paper's configuration table (Table 3 shapes + Table 4 rows)",
            default_payload_scale=1.0,
            builder=_paper_table2_scenarios,
        ),
        _Preset(
            name="gcp-scaleout",
            description="node-count scale-out on both GCP systems",
            default_payload_scale=1.0,
            builder=_gcp_scaleout_scenarios,
        ),
        _Preset(
            name="payload-ladder",
            description="payload sensitivity ladder on the A100 [8 4] shape",
            default_payload_scale=1.0,
            builder=_payload_ladder_scenarios,
        ),
        _Preset(
            name="appendix",
            description="the full appendix sweep (every shape, both systems)",
            default_payload_scale=1.0,
            builder=_appendix_scenarios,
        ),
    )
}


def preset_names() -> List[str]:
    return sorted(PRESETS)

"""Deterministic fingerprints for planning queries.

The planning service caches :class:`~repro.api.OptimizationPlan` objects by
the *query* that produced them.  Because the whole pipeline — placement
enumeration, program synthesis, lowering and simulation — is a deterministic
function of (topology, query, cost model), a canonical hash over exactly
those inputs is a sound cache key: two queries with the same fingerprint
always produce the same ranked plan.

The canonical form is a plain JSON-serializable dict built from
:meth:`repro.query.PlanQuery.to_dict` — the query object *is* the canonical
query — plus the canonical topology and cost-model forms that a
:class:`PlanQuery` deliberately does not carry (they are the service's fixed
context, not the request).  The fingerprint is the SHA-256 of the compact,
key-sorted JSON encoding.  Only stable value types (strings, ints, floats,
lists, ``None``) appear, so fingerprints are identical across process
restarts and unaffected by ``PYTHONHASHSEED``.

``FINGERPRINT_VERSION`` participates in the hash: bump it whenever the
canonical form or any pipeline semantics change, and every previously cached
plan is invalidated at once.  Version 2 switched the canonical query to
``PlanQuery.to_dict`` (grouping the request fields under a ``"query"`` key);
version 3 added the search budget (``max_candidates`` / ``time_budget_s``)
to the canonical query and baselines to the computed plans.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.cost.model import CostModel
from repro.query import PlanQuery
from repro.topology.links import LinkSpec
from repro.topology.topology import MachineTopology

__all__ = [
    "FINGERPRINT_VERSION",
    "canonical_topology",
    "canonical_cost_model",
    "canonical_plan_query",
    "plan_query_fingerprint",
]

FINGERPRINT_VERSION = 3


def _link_to_dict(link: LinkSpec) -> Dict:
    return {
        "name": link.name,
        "kind": link.kind.value,
        "bandwidth": link.bandwidth,
        "latency": link.latency,
    }


def canonical_topology(topology: MachineTopology) -> Dict:
    """Canonical JSON-serializable form of a machine topology."""
    return {
        "name": topology.name,
        "levels": [
            [level.name, level.cardinality] for level in topology.hierarchy.levels
        ],
        "interconnects": [_link_to_dict(link) for link in topology.interconnects],
        "nic_level": topology.nic_level,
        "nics_per_instance": topology.nics_per_instance,
        "host_link": (
            _link_to_dict(topology.host_link) if topology.host_link is not None else None
        ),
    }


def canonical_cost_model(cost_model: CostModel) -> Dict:
    """Canonical JSON-serializable form of the cost-model knobs."""
    return {
        "launch_overhead": cost_model.launch_overhead,
        "small_message_bytes": cost_model.small_message_bytes,
        "small_message_efficiency": cost_model.small_message_efficiency,
    }


def canonical_plan_query(
    topology: MachineTopology, query: PlanQuery, cost_model: CostModel
) -> Dict:
    """The full canonical form of one planning query.

    Everything :meth:`repro.api.P2.plan` consumes appears here; nothing else
    does, so the fingerprint neither over- nor under-approximates the
    pipeline's true input.
    """
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "topology": canonical_topology(topology),
        "cost_model": canonical_cost_model(cost_model),
        "query": query.to_dict(),
    }


def plan_query_fingerprint(
    topology: MachineTopology, query: PlanQuery, cost_model: CostModel
) -> str:
    """SHA-256 fingerprint of one :class:`PlanQuery` (64 hex characters)."""
    return _digest(canonical_plan_query(topology, query, cost_model))


def _digest(canonical: Dict) -> str:
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

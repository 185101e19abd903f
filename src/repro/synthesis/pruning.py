"""Search-space pruning predicates used by the synthesizer.

Two cheap necessary conditions keep the enumerative search small:

* **Goal-boundedness** — contributions, once folded into a device's chunk,
  are never separated again (the Hoare rules only grow, clear or copy rows).
  Therefore every row of every device state must stay a subset of that
  device's goal row; as soon as some device holds a contribution its goal
  forbids, the branch can never reach the goal and is cut.  This is exactly
  the argument behind Lemma B.3 in the paper's appendix.
* **Progress/feasibility** — with at most ``remaining`` further instructions,
  the goal must still be reachable in principle.  We use a very cheap bound:
  if no instruction remains and the context is not the goal, cut.

Both predicates are pure functions of state contexts so they can be unit- and
property-tested independently of the search itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.semantics.state import StateContext

__all__ = ["context_within_goal", "SearchStatistics"]


def context_within_goal(context: StateContext, goal: StateContext) -> bool:
    """True if every device row is a subset of the corresponding goal row."""
    for state, goal_state in zip(context.states, goal.states):
        if state.bits & ~goal_state.bits:
            return False
    return True


@dataclass
class SearchStatistics:
    """Counters describing one synthesis run (reported in the evaluation tables)."""

    nodes_expanded: int = 0
    steps_attempted: int = 0
    steps_invalid: int = 0
    branches_pruned_goal: int = 0
    programs_found: int = 0
    duplicate_programs: int = 0
    hit_node_limit: bool = False
    per_size_counts: Dict[int, int] = field(default_factory=dict)

    def record_program(self, size: int) -> None:
        self.programs_found += 1
        self.per_size_counts[size] = self.per_size_counts.get(size, 0) + 1

    def merge(self, other: "SearchStatistics") -> None:
        """Fold another run's counters into this one (per-placement -> per-plan).

        The search driver aggregates the per-placement synthesizer statistics
        this way so one query's :class:`~repro.query.PlanOutcome` can report
        the whole search's counters.
        """
        self.nodes_expanded += other.nodes_expanded
        self.steps_attempted += other.steps_attempted
        self.steps_invalid += other.steps_invalid
        self.branches_pruned_goal += other.branches_pruned_goal
        self.programs_found += other.programs_found
        self.duplicate_programs += other.duplicate_programs
        self.hit_node_limit = self.hit_node_limit or other.hit_node_limit
        for size, count in other.per_size_counts.items():
            self.per_size_counts[size] = self.per_size_counts.get(size, 0) + count

    def to_dict(self) -> Dict:
        """JSON-ready form, surfaced in planning provenance and sweep records.

        ``per_size_counts`` keys become strings (JSON objects cannot have
        integer keys) in ascending size order.
        """
        return {
            "nodes_expanded": self.nodes_expanded,
            "steps_attempted": self.steps_attempted,
            "steps_invalid": self.steps_invalid,
            "branches_pruned_goal": self.branches_pruned_goal,
            "programs_found": self.programs_found,
            "duplicate_programs": self.duplicate_programs,
            "hit_node_limit": self.hit_node_limit,
            "per_size_counts": {
                str(size): count for size, count in sorted(self.per_size_counts.items())
            },
        }

    def describe(self) -> str:
        sizes = ", ".join(f"size {k}: {v}" for k, v in sorted(self.per_size_counts.items()))
        return (
            f"{self.programs_found} programs "
            f"({sizes or 'none'}); expanded {self.nodes_expanded} nodes, "
            f"{self.steps_invalid}/{self.steps_attempted} steps invalid, "
            f"{self.branches_pruned_goal} goal-pruned"
        )

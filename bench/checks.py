"""Correctness of every answer, counted as operations attempted / failed.

A full plan is reduced to a digest and compared with the committed
``reference/digests.json``; a query the reference does not hold (the seeded
never-seen payloads) must at least agree with every other answer to the
same query in this run — cold == memory == disk == wire.  Winners are also
executed on the in-memory cluster.  All of this runs outside timed regions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from harness import BENCH_DIR, plan_dict_digest
from workloads import Target

from repro.runtime.verification import verify_against_placement

REFERENCE = BENCH_DIR / "reference" / "digests.json"


def load_reference() -> Dict[str, Dict[str, Any]]:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["entries"]


def headline_of(plan: Any) -> Dict[str, Any]:
    """What a headline-only daemon reply can be compared on."""
    return {
        "best_seconds": repr(plan.best.predicted_seconds),
        "num_strategies": len(plan.strategies),
    }


class Checker:
    def __init__(self) -> None:
        self.reference = load_reference()
        self.seen: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _record(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(why)
        return ok

    def fail(self, why: str) -> None:
        self._record(False, why)

    def _expected(self, target: Target, field: str, observed: Any) -> Any:
        known = self.reference.get(target.key)
        if known is None:
            known = self.seen.setdefault(target.key, {})
        return known.setdefault(field, observed)

    def plan(self, target: Target, digest: str, got: Optional[str] = None,
             want: Optional[str] = None) -> bool:
        """One full plan; ``want`` names the tier (cold/memory/disk) it must come from."""
        expected = self._expected(target, "digest", digest)
        if digest != expected:
            return self._record(False, f"{target.label}: digest {digest[:12]} != {expected[:12]}")
        return self._record(
            want is None or got == want, f"{target.label}: answered from {got}, not {want}"
        )

    def headline(self, target: Target, outcome: Dict[str, Any], want: Optional[str] = None) -> bool:
        """A headline-only daemon reply: best time, strategy count, tier."""
        best = repr(float(outcome["best_seconds"]))
        count = outcome["num_strategies"]
        got = outcome["cache_tier"] or "cold"
        ok = (
            best == self._expected(target, "best_seconds", best)
            and count == self._expected(target, "num_strategies", count)
            and (want is None or got == want)
        )
        return self._record(ok, f"{target.label}: headline {best}/{count} from {got}")

    def stored_entry(self, target: Target, directory: Path, fingerprint: str,
                     digest: str) -> bool:
        """The disk entry a cold plan wrote holds the plan it returned."""
        envelope = json.loads((directory / f"{fingerprint}.json").read_text())
        return self._record(
            plan_dict_digest(envelope["plan"]) == digest,
            f"{target.label}: stored cache entry differs from the returned plan",
        )

    def verify_winner(self, target: Target, plan: Any) -> bool:
        best = plan.best
        report = verify_against_placement(
            best.program, best.candidate.placement, target.query.request
        )
        return self._record(report.ok, f"{target.label}: winner fails on the cluster")

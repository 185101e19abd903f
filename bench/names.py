"""Every name the benchmark emits, with its unit — read from ``BENCHMARK.json``.

The contract at the repo root is the one place a workload or metric is named;
``metrics.json`` adds what the contract cannot carry (definitions,
predictions, bounds of the single-workload ``e2e.*`` metrics).
"""

from __future__ import annotations

from typing import Dict, Tuple

from harness import load_contract

_CONTRACT = load_contract()

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in _CONTRACT["workloads"])
# Untraced pass: defined on every workload, never zero, bounded by the driver.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
# Traced pass: zero on a workload that never crosses the layer.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}

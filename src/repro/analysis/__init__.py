"""Post-processing of sweep results: persistence, statistics and comparisons.

The evaluation harness can take minutes at paper-scale payloads, so results
should be produced once and analysed many times:

* :mod:`repro.analysis.serialization` — sweep results as JSONL records
  (``repro-cli sweep --out``) and back.
* :mod:`repro.analysis.stats` — aggregate statistics (fraction of mappings a
  synthesized program helps, average and maximum speedups, per-system
  breakdowns) in the form the paper's abstract quotes.
* :mod:`repro.analysis.compare` — compare two sweeps of the same
  configurations (e.g. ring vs. tree, or two cost-model settings).
"""

from repro.analysis.serialization import (
    iter_jsonl_records,
    load_jsonl_results,
    result_from_record,
    result_to_record,
)
from repro.analysis.stats import SpeedupSummary, summarize_results
from repro.analysis.compare import SweepComparison, compare_sweeps

__all__ = [
    "result_to_record",
    "result_from_record",
    "load_jsonl_results",
    "iter_jsonl_records",
    "SpeedupSummary",
    "summarize_results",
    "SweepComparison",
    "compare_sweeps",
]

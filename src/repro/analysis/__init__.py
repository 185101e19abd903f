"""Post-processing of sweep results: persistence and the abstract's statistic.

The evaluation harness can take minutes at paper-scale payloads, so results
should be produced once and analysed many times:

* :mod:`repro.analysis.serialization` — sweep results as JSONL records
  (``repro-cli sweep --out``) and back.
* :mod:`repro.analysis.stats` — the aggregate the paper's abstract quotes
  (fraction of mappings a synthesized program helps, average and maximum
  speedups).
"""

from repro.analysis.serialization import (
    iter_jsonl_records,
    load_jsonl_results,
    result_from_record,
    result_to_record,
)
from repro.analysis.stats import SpeedupSummary, summarize_results

__all__ = [
    "result_to_record",
    "result_from_record",
    "load_jsonl_results",
    "iter_jsonl_records",
    "SpeedupSummary",
    "summarize_results",
]

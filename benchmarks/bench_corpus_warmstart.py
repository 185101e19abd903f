"""Benchmark — corpus warm starts: seeding cold searches from their history.

The plan corpus (``repro.corpus``) exists to make the *first* good answer
arrive sooner: a cold search seeded with its nearest historical neighbor
starts from a real incumbent instead of discovering one mid-enumeration.
This benchmark walks a payload ladder on the two-node A100 system:

* **warm rungs** — the first payloads are planned exhaustively through a
  corpus-attached :class:`~repro.service.PlanningService`, populating the
  corpus the way a sweep or a live daemon would;
* **eval rungs** — every later payload is planned twice with lossless
  pruning active (a non-binding ``max_candidates`` turns bounds on without
  truncating the stream): once seeded from the corpus, once from scratch.

Three properties are asserted, none of them statistical:

* the seeded search reaches its final incumbent at least 2x sooner
  (median ``time_to_incumbent_s`` over the eval rungs), and the incumbent
  is stamped as seeded;
* the seed makes pruning *stronger* — more entries bound-rejected, fewer
  exactly priced — because the incumbent exists before the first placement
  is even synthesized;
* seeding is lossless: an exhaustive seeded plan is bit-identical
  (entries, mnemonics, predicted floats) to the exhaustive unseeded plan.

The gated counters are structural (rungs, seeds, match counts), so they are
deterministic; the incumbent speedup is asserted here, not gated, because
both timings move together on a shared machine.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.corpus import PlanCorpus
from repro.query import PlanQuery
from repro.service import PlanningService
from repro.topology.gcp import a100_system
from repro.utils.tabulate import format_table

MB = 1 << 20
WARM_PAYLOADS = [1 * MB, 2 * MB]
EVAL_PAYLOADS = [4 * MB, 8 * MB, 16 * MB, 32 * MB]
SPEEDUP_BAR = 2.0
# Large enough to never truncate the stream: the budget only exists to turn
# on lossless bound pruning, so both sides still enumerate everything.
NON_BINDING_BUDGET = 10**9


def _query(payload: int, **kwargs) -> PlanQuery:
    # Reducing along the *inner* axis puts the winner deep in enumeration
    # order, so an unseeded search must price nearly everything before its
    # incumbent settles — the case history is supposed to accelerate.
    return PlanQuery(
        axes=(8, 4), request=(1,), bytes_per_device=payload,
        max_program_size=3, **kwargs,
    )


def _ranking(plan):
    return [
        (s.matrix.entries, s.mnemonic, s.predicted_seconds, s.is_default_all_reduce)
        for s in plan.strategies
    ]


def _service(topology, corpus=None) -> PlanningService:
    # A fresh service per plan: neither side may warm the other's profile
    # cache, and repeated queries must re-search rather than hit the cache.
    return PlanningService(topology, corpus=corpus)


@pytest.mark.benchmark(group="corpus-warmstart")
def test_corpus_seeded_search_reaches_incumbent_sooner(
    benchmark, save_artifact, bench_json, tmp_path_factory
):
    topology = a100_system(num_nodes=2)
    corpus_dir = tmp_path_factory.mktemp("corpus")

    def ladder():
        corpus = PlanCorpus(corpus_dir / "store")
        for payload in WARM_PAYLOADS:
            _service(topology, corpus).plan(_query(payload))
        assert len(corpus) == len(WARM_PAYLOADS)

        rows = []
        seeded_ttis, unseeded_ttis = [], []
        seeds = seeded_incumbents = identical = 0
        seeded_rejected = unseeded_rejected = 0
        seeded_ranked = unseeded_ranked = 0
        total_seconds = 0.0
        for payload in EVAL_PAYLOADS:
            budgeted = _query(payload, max_candidates=NON_BINDING_BUDGET)
            start = time.perf_counter()
            seeded = _service(topology, corpus).plan(budgeted)
            unseeded = _service(topology).plan(budgeted)
            total_seconds += time.perf_counter() - start

            seeds += seeded.search["seeds"]
            seeded_incumbents += bool(seeded.search["seeded_incumbent"])
            seeded_ttis.append(seeded.search["time_to_incumbent_s"])
            unseeded_ttis.append(unseeded.search["time_to_incumbent_s"])
            seeded_rejected += seeded.search["bound_rejected"]
            unseeded_rejected += unseeded.search["bound_rejected"]
            seeded_ranked += seeded.search["ranked"]
            unseeded_ranked += unseeded.search["ranked"]

            # Losslessness: the exhaustive seeded plan (which the corpus
            # ingests as new history) matches the exhaustive unseeded one
            # bit for bit.
            exhaustive_seeded = _service(topology, corpus).plan(_query(payload))
            exhaustive_unseeded = _service(topology).plan(_query(payload))
            identical += _ranking(exhaustive_seeded.plan) == _ranking(
                exhaustive_unseeded.plan
            )
            rows.append(
                [
                    payload // MB,
                    seeded.search["seeds"],
                    seeded.search["time_to_incumbent_s"] * 1e3,
                    unseeded.search["time_to_incumbent_s"] * 1e3,
                    seeded.search["bound_rejected"],
                    unseeded.search["bound_rejected"],
                    "yes" if seeded.search["seeded_incumbent"] else "NO",
                ]
            )
        return (
            rows, seeded_ttis, unseeded_ttis, seeds, seeded_incumbents,
            identical, seeded_rejected, unseeded_rejected,
            seeded_ranked, unseeded_ranked, total_seconds,
        )

    (
        rows, seeded_ttis, unseeded_ttis, seeds, seeded_incumbents,
        identical, seeded_rejected, unseeded_rejected,
        seeded_ranked, unseeded_ranked, total_seconds,
    ) = benchmark.pedantic(ladder, rounds=1, iterations=1)

    seeded_median = statistics.median(seeded_ttis)
    unseeded_median = statistics.median(unseeded_ttis)
    speedup = unseeded_median / seeded_median if seeded_median else float("inf")
    text = format_table(
        [
            "payload (MB)", "seeds", "seeded tti (ms)", "unseeded tti (ms)",
            "seeded rejected", "unseeded rejected", "seeded incumbent",
        ],
        rows,
        title=(
            f"Corpus warm starts over a payload ladder "
            f"({len(WARM_PAYLOADS)} warm + {len(EVAL_PAYLOADS)} eval rungs): "
            f"median time-to-incumbent {unseeded_median * 1e3:.2f} ms -> "
            f"{seeded_median * 1e3:.2f} ms ({speedup:.1f}x)"
        ),
        float_fmt="{:.3f}",
    )
    save_artifact("corpus_warmstart", text)
    bench_json(
        "corpus_warmstart",
        total_seconds,
        counters={
            "eval_rungs": len(EVAL_PAYLOADS),
            "warm_rungs": len(WARM_PAYLOADS),
            "seeds": seeds,
            "seeded_incumbents": seeded_incumbents,
            "identical_rankings": identical,
        },
        extra={
            "seeded_median_tti_s": seeded_median,
            "unseeded_median_tti_s": unseeded_median,
            "tti_speedup": speedup,
            "seeded_bound_rejected": seeded_rejected,
            "unseeded_bound_rejected": unseeded_rejected,
            "seeded_ranked": seeded_ranked,
            "unseeded_ranked": unseeded_ranked,
        },
    )

    # Every eval rung found a seed and its incumbent came from history.
    assert seeds >= len(EVAL_PAYLOADS)
    assert seeded_incumbents == len(EVAL_PAYLOADS)
    # Losslessness is not statistical: every rung's plans must match.
    assert identical == len(EVAL_PAYLOADS), (
        f"corpus seeding changed the plan in "
        f"{len(EVAL_PAYLOADS) - identical} rung(s)"
    )
    # The PR acceptance bar: history halves (at least) the time to the
    # final incumbent...
    assert speedup >= SPEEDUP_BAR, (
        f"seeded search only {speedup:.1f}x sooner to incumbent "
        f"(bar: {SPEEDUP_BAR}x; seeded {seeded_median * 1e3:.2f} ms vs "
        f"unseeded {unseeded_median * 1e3:.2f} ms)"
    )
    # ...because the seed incumbent exists before enumeration starts, the
    # bounds cut deeper: more entries rejected, fewer exactly priced.
    assert seeded_rejected > unseeded_rejected, (
        f"seeding did not strengthen pruning "
        f"({seeded_rejected} vs {unseeded_rejected} bound-rejected)"
    )
    assert seeded_ranked < unseeded_ranked, (
        f"seeding did not reduce exact pricing "
        f"({seeded_ranked} vs {unseeded_ranked} ranked)"
    )

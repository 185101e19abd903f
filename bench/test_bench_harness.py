"""Fast checks of the benchmark's own arithmetic and registry (no sockets, no plans)."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import names  # noqa: E402


# --- the "at least ten samples beyond" rule ------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (499, 95.0), (500, 98.0), (1000, 99.0), (2000, 99.0), (10000, 99.9),
])
def test_supported_percentile(n, expected):
    assert harness.supported_percentile(n) == expected


def test_tail_value_has_ten_samples_beyond_it():
    samples = list(range(1, 501))
    q, value = harness.tail(samples)
    assert (q, value) == (98.0, 490)
    assert sum(1 for x in samples if x > value) == harness.MIN_BEYOND
    assert harness.tail([3.0, 1.0, 2.0]) == (None, 2.0)


def test_nearest_rank_percentile():
    assert harness.percentile([5, 1, 4, 2, 3], 50) == 3
    assert harness.percentile([5, 1, 4, 2, 3], 100) == 5
    assert harness.percentile([7], 99) == 7


# --- geomean of class medians ---------------------------------------------- #
def test_geomean_of_class_medians_weighs_classes_not_requests():
    by_class = {"light": [1.0] * 1000 + [50.0], "heavy": [100.0, 90.0, 110.0]}
    assert harness.geomean_of_class_medians(by_class) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, 0.0])


def test_quartile_spread_is_the_drivers():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.quartile_spread(values) == (q3 - q1) / statistics.median(values)


# --- span self time ---------------------------------------------------------- #
def test_self_time_nested_children():
    rec = harness.SpanRecorder()
    root = rec.add("root", 0.0, 10.0, request="r")
    child = rec.add("child", 1.0, 6.0, parent=root, request="r")
    rec.add("grandchild", 2.0, 4.0, parent=child, request="r")
    assert rec.self_times() == [5.0, 3.0, 2.0]
    by_name = rec.self_by_request()
    assert sum(by_name[name]["r"] for name in by_name) == 10.0  # sums to the root's wall


def test_self_time_overlapping_children_count_once():
    rec = harness.SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    rec.add("a", 1.0, 5.0, parent=root)
    rec.add("b", 3.0, 7.0, parent=root)      # overlaps a
    rec.add("c", 9.0, 12.0, parent=root)     # runs past the parent: clipped
    assert rec.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_live_spans_nest_and_carry_the_request_id():
    rec = harness.SpanRecorder()
    rec.request = "q1"
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    (outer, inner) = rec.spans
    assert inner[3] == 0 and outer[3] is None and inner[4] == "q1"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert rec.calls() == {"outer": 1, "inner": 1}


# --- seeded inputs ------------------------------------------------------------ #
def test_schedules_and_draws_are_functions_of_the_seed():
    assert harness.constant_rate_schedule(50, 2)[:3] == [0.0, 0.02, 0.04]
    assert len(harness.constant_rate_schedule(50, 2)) == 100
    assert harness.mix_flags(200, 0.2, 7) == harness.mix_flags(200, 0.2, 7)
    assert harness.mix_flags(200, 0.2, 7) != harness.mix_flags(200, 0.2, 8)
    rows = ["F", "G", "J", "K", "L"]
    assert harness.rotated(rows, 1, 0) == harness.rotated(rows, 1, 5)
    assert sorted(harness.rotated(rows, 1, 2)) == rows
    assert harness.rotated(rows, 1, 1) == harness.rotated(rows, 1, 0)[1:] + harness.rotated(rows, 1, 0)[:1]


# --- digests ------------------------------------------------------------------ #
def test_digest_ignores_dict_order_and_extra_fields_but_not_rank_or_floats():
    strategies = [
        {"matrix": [[8, 1], [1, 4]], "mnemonic": "AR", "predicted_seconds": 0.1 + 0.2},
        {"matrix": [[4, 2], [2, 2]], "mnemonic": "RS-AR-AG", "predicted_seconds": 0.5},
    ]
    plan = {"strategies": strategies, "baselines": {}}
    reordered = {
        "baselines": {"x": 1.0},
        "strategies": [dict(reversed(list(s.items())), size=3) for s in strategies],
    }
    assert harness.plan_dict_digest(plan) == harness.plan_dict_digest(reordered)
    assert harness.plan_dict_digest(plan) != harness.plan_dict_digest(
        {"strategies": strategies[::-1]})
    nudged = [dict(strategies[0], predicted_seconds=0.3), strategies[1]]  # 0.1 + 0.2 != 0.3
    assert harness.plan_dict_digest(plan) != harness.plan_dict_digest({"strategies": nudged})
    tuples = {"strategies": [dict(s, matrix=tuple(map(tuple, s["matrix"]))) for s in strategies]}
    assert harness.plan_dict_digest(plan) == harness.plan_dict_digest(tuples)


# --- verdicts ------------------------------------------------------------------ #
def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert harness.verdict(steady, [x * 1.2 for x in steady], "lower", 0.10) == "regressed"
    assert harness.verdict(steady, [x * 1.05 for x in steady], "lower", 0.10) == "unchanged"
    assert harness.verdict(steady, [x * 0.8 for x in steady], "lower", 0.10) == "improved"
    assert harness.verdict(steady, [x * 0.8 for x in steady], "higher", 0.10) == "regressed"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert harness.verdict(noisy, [11.5, 9.5, 13.0, 8.5, 12.0], "lower", 0.10) == "unresolved"
    assert harness.verdict(noisy, [4.0, 5.0, 4.5, 5.5, 4.2], "lower", 0.10) == "improved"
    assert harness.verdict([10.0], [9.0], "lower", 0.10) == "unchanged"  # one run: no spread
    assert harness.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


# --- the registry: metrics.json speaks only of names the contract has ---------- #
def test_registry_agrees_with_the_contract():
    contract = harness.load_contract()
    registry = harness.load_registry()
    assert names.WORKLOADS == tuple(w["name"] for w in contract["workloads"])
    assert contract["paths"] == ["bench"] and contract["command"] == ["python3", "bench/run.py"]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in contract["end_to_end"])
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    emitted = set(names.END_TO_END) | set(names.PER_LAYER)
    phases = ("mixed20", "warm25", "warm50", "warm100")
    defined = set()
    for name in registry["definitions"]:
        stem, star, _ = name.partition(".<phase>")
        defined |= {f"{stem}.{phase}" for phase in phases} if star else {name}
    assert defined == emitted
    assert set(registry["bounds"]) <= set(names.PER_LAYER)
    predicted = [m for group in registry["predictions"] for m in group["metrics"]]
    assert len(predicted) == len(set(predicted)) and set(predicted) <= set(names.PER_LAYER)
    for group in registry["predictions"]:
        for metric, workload in group["moves"]:
            assert metric in emitted and workload in names.WORKLOADS, group["metrics"]

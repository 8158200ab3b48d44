"""The benchmark's own arithmetic; runs in well under a second and never
starts a workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 20, 31, 40, 100, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    assert metrics.tail_percentile(n) == pytest.approx(100 * (1 - 10 / n))
    samples = list(range(n))
    tail = samples[metrics.tail_index(n)]
    assert sum(1 for s in samples if s > tail) == 10
    # The nearest-rank definition: at least p% of samples are <= the tail.
    assert (metrics.tail_index(n) + 1) / n * 100 >= metrics.tail_percentile(n) - 1e-9


@pytest.mark.parametrize("n", [0, 5, 10])
def test_tail_percentile_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        metrics.tail_index(n)


def test_failed_ops_rank_slower_than_every_success():
    latencies = [0.5, 0.1, 0.2, 9.0] + [0.3] * 8
    ok = [True, False, True, True] + [True] * 8
    ranked = metrics.ranked_latencies(latencies, ok)
    assert ranked[-1] == 0.1  # the failed op, though fastest
    assert ranked[:-1] == sorted(lat for lat, flag in zip(latencies, ok) if flag)
    summary = metrics.latency_summary(latencies, ok)
    assert summary["n"] == 12
    assert summary["tail"] == ranked[1]
    assert summary["p50"] == pytest.approx(0.3)


def test_best_of_rounds_takes_fastest_and_checks_megabits():
    op = lambda lat, mb, ok=True: {"latency": lat, "ok": ok, "error": None if ok else "x",
                                   "megabits": mb}
    rounds = [
        [op(0.3, [1.0]), op(0.2, [2.0]), op(0.1, [3.0])],
        [op(0.1, [1.0]), op(0.4, [2.5]), op(0.2, [3.0], ok=False)],
    ]
    merged = metrics.best_of_rounds(rounds)
    assert [m["latency"] for m in merged] == [0.1, 0.2, 0.1]
    assert [m["ok"] for m in merged] == [True, False, False]
    assert "differ" in merged[1]["error"]
    assert merged[2]["error"] == "x"


def test_run_size_is_fixed_by_seconds():
    # serve-600 sessions are 4 requests; the tail must lie above the median.
    assert run.OPS % 4 == 0 and metrics.tail_index(run.OPS) > run.OPS // 2
    for workload in run.EXECUTIONS_PER_SECOND:
        for seconds in (1, 10, 25, 60):
            rounds = run.round_count(workload, seconds)
            assert rounds >= run.MIN_ROUNDS
            assert rounds == run.round_count(workload, seconds)


# ----------------------------------------------------------------------
# Spans and the unattributed sum
# ----------------------------------------------------------------------
def _tree():
    spans = metrics.Spans()
    root = spans.add("op", 0.0, 1.0, op=0)
    spans.add("scenario.build", 0.0, 0.25, op=0, parent=root)
    call = spans.add("run_tour", 0.25, 0.95, op=0, parent=root)
    spans.add_phases({"id": call, "start": 0.25, "op": 0},
                     [("instance.build", 0.05), ("solve.offline_appro", 0.5), ("verify", 0.1)])
    spans.add("service.hit", 2.0, 2.5, op=1)
    return spans.records


def test_self_time_subtracts_children():
    records = _tree()
    selfs = metrics.self_times(records)
    by_name = {r["name"]: selfs[r["id"]] for r in records}
    assert by_name["op"] == pytest.approx(1.0 - 0.25 - 0.7)
    assert by_name["run_tour"] == pytest.approx(0.7 - 0.65)
    assert by_name["solve.offline_appro"] == pytest.approx(0.5)


def test_unattributed_is_latency_minus_layer_self_times():
    layer_of = {"scenario.build": "scenario.build_ms", "instance.build": "instance.build_ms",
                "solve.offline_appro": "solve.offline_appro_ms", "verify": "verify_ms",
                "service.hit": "service.hit_ms"}
    per_op = metrics.op_layers(_tree(), layer_of)
    op0 = per_op[0]
    assert op0["unattributed"] == pytest.approx(1.0 - 0.25 - 0.05 - 0.5 - 0.1)
    assert sum(op0.values()) == pytest.approx(1.0)  # latency of the op
    assert per_op[1] == {"unattributed": 0.0, "service.hit_ms": pytest.approx(0.5)}


def test_spans_nest_under_the_open_span():
    spans = metrics.Spans()
    with spans.span("op", 3) as outer:
        with spans.span("inner", 3) as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# ----------------------------------------------------------------------
# Names and the BENCHMARK.json shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", ["", "_x", ".x", "a b", "a/b", "x" * 65, "lat%"])
def test_check_name_rejects(bad):
    with pytest.raises(ValueError):
        metrics.check_name(bad)


def test_every_name_has_the_metric_charset():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert metrics.check_name(name) == name
    assert len(names) == len(set(names))


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(run.EXECUTIONS_PER_SECOND)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == run.END_TO_END_UNITS
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_per_layer_metric_names_its_layer_and_what_it_moves():
    layers = metrics.load_layers()
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for m in SPEC["per_layer"]:
        spec = layers[m["name"]]
        assert spec["unit"] == m["unit"] and spec["better"] == m["better"]
        assert spec["layer"]
        assert spec["moves"] and set(spec["moves"]) <= e2e
        assert spec["on"] and set(spec["on"]) <= workloads
        assert set(spec["unchanged_on"]) <= workloads - set(spec["on"])
        sources = {"span", "counter", "total_of", "reply"} & set(spec)
        assert len(sources) <= 1
        if not sources:
            assert m["name"] in ("unattributed_ms", "trace_overhead_share")

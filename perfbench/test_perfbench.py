"""Self-tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import TARGETS, metric_units  # noqa: E402
import run  # noqa: E402
from run import (  # noqa: E402
    E2E_UNITS,
    MIN_PASSES,
    BenchError,
    digest_problems,
    pass_seeds,
    percentile,
    tail_percentile,
)
from spans import Patcher, Target, Tracer, fold  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fold_tree(spans):
    names, parents, starts, ends = zip(*spans)
    return fold(names, parents, starts, ends)


def test_self_time_subtracts_direct_children_only():
    # entry [0,10] > select [1,8] > select [2,5] (re-entrant), parse [5.5,6.5]
    # entry [0,10] > insert [8,9]
    spans = [
        ("entry", -1, 0.0, 10.0),
        ("select", 0, 1.0, 8.0),
        ("select", 1, 2.0, 5.0),
        ("parse", 1, 5.5, 6.5),
        ("insert", 0, 8.0, 9.0),
    ]
    folded = _fold_tree(spans)
    assert folded["entry"] == (1, pytest.approx(2.0))
    # outer select 7 - 3 - 1 = 3, inner 3: the nested call is counted
    # once in self time, where summing durations would give 7 + 3 = 10
    assert folded["select"] == (2, pytest.approx(6.0))
    assert folded["parse"] == (1, pytest.approx(1.0))
    assert folded["insert"] == (1, pytest.approx(1.0))
    assert sum(s for _, s in folded.values()) == pytest.approx(10.0)


def test_tracer_records_recursive_calls_with_parents():
    tracer = Tracer()

    def countdown(n):
        return n if n == 0 else traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    assert traced(3) == 0
    assert list(tracer.parents) == [-1, 0, 1, 2]
    calls, self_s = tracer.fold()["countdown"]
    assert calls == 4
    assert self_s == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0      # exactly 10 beyond p99
    assert tail_percentile(999) == 95.0       # 9 beyond p99
    assert tail_percentile(1400) == 99.0
    assert tail_percentile(20) == 50.0
    with pytest.raises(BenchError):
        tail_percentile(19)


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(100, 0, -1)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert percentile([7.0], 99.9) == 7.0


def test_pass_seeds_always_include_the_recorded_seed():
    assert pass_seeds(7, 0, 2) == (0, 701, 702)
    assert len(pass_seeds(7, 0, 2)) == MIN_PASSES
    assert pass_seeds(7, 0, 5) == (0, 701, 702, 703, 704, 705)
    with pytest.raises(BenchError):
        pass_seeds(7, 0, 1)


def test_runs_stop_after_whole_rounds_only(monkeypatch):
    clock = [0.0]

    def fake_pass(workload, seed, mode, timeout):
        clock[0] += 1.0 if mode == "setup" else 4.0
        return {"seed": seed, "mode": mode}

    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "SETUP_PROBES_PER_SEED", 1)
    passes = run.run_passes("w", (0, 1, 2), 30, trace=False)
    assert [(p["seed"], p["mode"]) for p in passes] == [
        (0, "setup"), (0, "plain"), (1, "setup"), (1, "plain"),
        (2, "setup"), (2, "plain"), (0, "plain"), (1, "plain"),
        (2, "plain")]
    clock[0] = 0.0
    traced = run.run_passes("w", (0, 1, 2), 25, trace=True)
    assert [(p["seed"], p["mode"]) for p in traced] == [
        (0, "plain"), (0, "traced"), (1, "plain"), (1, "traced"),
        (2, "plain"), (2, "traced")]


def test_digest_check_needs_the_recorded_seed_and_agreement():
    recorded = {"seed": 0, "digest": "a"}
    ok = [{"seed": 0, "digest": "a"}, {"seed": 1, "digest": "b"},
          {"seed": 1, "digest": "b"}]
    assert digest_problems(ok, recorded) == []
    wrong = [{"seed": 0, "digest": "x"}]
    assert "differs from the recorded" in digest_problems(wrong, recorded)[0]
    split = ok + [{"seed": 1, "digest": "c"}]
    assert "disagree" in digest_problems(split, recorded)[0]
    missing = ok[1:]
    assert "recorded seed 0" in digest_problems(missing, recorded)[0]


def test_patcher_reaches_names_imported_elsewhere_and_restores():
    from repro.workloads.dbms import engine, parser

    original = parser.parse
    patcher = Patcher()
    target = Target("workloads.dbms", "repro.workloads.dbms.parser", "parse")
    patcher.patch([(target, lambda fn: Tracer().wrap("parse", fn))])
    try:
        assert engine.parse is parser.parse
        assert engine.parse is not original
    finally:
        patcher.restore()
    assert engine.parse is original and parser.parse is original


def test_patcher_refuses_to_leave_a_wrapper_behind():
    from repro.workloads.dbms import engine, parser

    original = parser.parse
    patcher = Patcher()
    target = Target("workloads.dbms", "repro.workloads.dbms.parser", "parse")
    patcher.patch([(target, lambda fn: Tracer().wrap("parse", fn))])
    engine.late_binding = parser.parse   # as a module imported mid-pass would
    try:
        with pytest.raises(RuntimeError):
            patcher.restore()
    finally:
        del engine.late_binding
    assert parser.parse is original


def test_benchmark_json_declares_what_run_measures():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_spec_tails_follow_the_rule_and_map_covers_every_target():
    spec = json.loads((HERE / "spec.json").read_text())
    assert set(spec["workloads"]) == set(WORKLOADS)
    for entry in spec["workloads"].values():
        assert entry["tail_percentile"] == tail_percentile(
            MIN_PASSES * entry["units_per_pass"])
    units = metric_units()
    mapped = set()
    for arrow in spec["layer_map"]:
        mapped.update(arrow["metrics"])
        for workload, metric in arrow["moves"] + arrow.get("unchanged", []):
            assert workload in WORKLOADS and metric in E2E_UNITS
    assert mapped <= set(units)
    assert {f"{t.name}.self_s" for t in TARGETS} <= mapped

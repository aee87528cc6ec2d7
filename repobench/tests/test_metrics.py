"""Metric names, the per-layer metric set, and the layer wrappers."""

import json
from pathlib import Path

from repro.core.system import ContestingSystem
from repro.engine import ContestJob, SimEngine, StandaloneJob, TraceSpec
from repro.experiments.runner import EXPERIMENTS
from repro.uarch.config import core_config

from repobench import layers, workloads
from repobench.spans import SpanTracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def unit(**overrides):
    fields = dict(wall_s=1.0, digest="d", mismatch=None, jobs=4, misses=2,
                  failures=0, write_errors=0, executed={"standalone": 2})
    fields.update(overrides)
    return workloads.UnitResult(**fields)


def test_every_metric_name_is_valid():
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert layers.METRIC_NAME.fullmatch(entry["name"]), entry
    names = [e["name"] for s in ("end_to_end", "per_layer")
             for e in BENCHMARK[s]]
    assert len(names) == len(set(names))


def test_per_layer_metrics_match_the_benchmark_file():
    metrics = layers.per_layer_metrics(
        SpanTracer(), layers.SimTally(), [unit(), unit()], 0.5, 0.1)
    for name, (value, unit_name) in metrics.items():
        assert layers.METRIC_NAME.fullmatch(name), name
        assert isinstance(value, (int, float)) and unit_name
    assert sorted(metrics) == sorted(e["name"] for e in BENCHMARK["per_layer"])
    assert {f"experiments.{n}_s" for n in EXPERIMENTS} <= set(metrics)
    assert metrics["engine.jobs"] == (4.0, "count")
    assert metrics["engine.hit_ratio"] == (0.5, "ratio")
    assert metrics["trace.overhead_s"] == (0.5, "s")


def test_end_to_end_metric_set():
    assert [e["name"] for e in BENCHMARK["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "sim_kips"]
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


def test_instrumentation_observes_without_changing_results():
    spec = TraceSpec("gcc", 400, seed=5)
    jobs = [
        StandaloneJob(core_config("gcc"), spec),
        ContestJob((core_config("gcc"), core_config("mcf")), spec),
    ]
    plain = [job.run() for job in jobs]
    originals = {
        name: ContestingSystem.__dict__[name]
        for name in ("__init__", "run", "on_retire", "drain",
                     "pop_for_fetch")
    }
    tracer = SpanTracer()
    tally = layers.SimTally()
    with layers.instrumented(tracer, tally), tracer.span("unit"):
        traced = SimEngine().run_many(jobs)
    for name, original in originals.items():
        assert ContestingSystem.__dict__[name] is original
    assert EXPERIMENTS["fig01"].__module__ == "repro.experiments.fig01"
    assert not hasattr(EXPERIMENTS["fig01"], "__wrapped__")

    assert traced[0].cycles == plain[0].cycles
    assert traced[1].time_ps == plain[1].time_ps
    assert tracer.calls("core.contest_run") == 1
    assert tracer.calls("uarch.standalone") == 1
    assert tracer.calls("uarch.core_init") == 3
    assert tracer.calls("core.grb_retire") > 0
    assert tracer.calls("engine.execute.contest") == 1
    assert tally.instructions["contest"] == 400
    assert tally.cycles == plain[0].cycles + sum(
        s.cycles for s in plain[1].per_core.values())
    total_self, roots = tracer.self_time_check()
    assert total_self == roots


def test_patcher_everywhere_rebinds_imported_names():
    from repro.analysis import switching
    from repro.experiments import common

    original = switching.pair_switch_time
    patcher = layers.Patcher()
    patcher.everywhere(original, "sentinel")
    try:
        assert common.pair_switch_time == "sentinel"
        assert switching.pair_switch_time == "sentinel"
    finally:
        patcher.restore()
    assert common.pair_switch_time is original

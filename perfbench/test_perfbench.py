"""Tests of the benchmark itself: its checks, its metric names, its accounting.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.simulation.topology import TopologySpec

from perfbench import workloads as wl
from perfbench import report
from perfbench.checks import CaseResult, SweepPass, check_case, check_cold, check_warm
from perfbench.run import END_TO_END_UNITS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

GOOD_CASE = CaseResult(
    name="case",
    n=100,
    epsilon=0.1,
    single_hop=True,
    informed=95,
    terminated_informed=95,
    terminated_uninformed=5,
    slots=1000,
    rounds=7,
    terminated_by_cap=False,
    alice_cost=10.0,
    node_cost_max=3.0,
    adversary_spend=50.0,
    adversary_budget=50.0,
    reachable=95,
)


@pytest.mark.parametrize(
    "doctored, phrase",
    [
        (dict(terminated_uninformed=6), "partition"),
        (dict(informed=94, reachable=94), "partition"),
        (dict(adversary_spend=50.5), "budget"),
        (dict(terminated_by_cap=True), "round cap"),
        (
            dict(informed=89, terminated_informed=89, terminated_uninformed=11, reachable=89),
            "(1-eps)n",
        ),
        (dict(reachable=96), "component"),
    ],
)
def test_a_doctored_case_trips_its_check(doctored, phrase):
    assert check_case(GOOD_CASE) == []
    failures = check_case(dataclasses.replace(GOOD_CASE, **doctored))
    assert len(failures) == 1 and phrase in failures[0]


def test_the_delivery_floor_applies_to_single_hop_only():
    spatial = dataclasses.replace(
        GOOD_CASE,
        single_hop=False,
        informed=10,
        terminated_informed=10,
        terminated_uninformed=90,
        reachable=None,
    )
    assert check_case(spatial) == []


COLD = SweepPass("E1", "table\n", trials=4, executed=4, cache_hits=0, quarantined=0)
WARM = SweepPass("E1", "table\n", trials=4, executed=0, cache_hits=4, quarantined=0)


@pytest.mark.parametrize(
    "doctored, phrase",
    [
        (dict(table="table \n"), "differs"),
        (dict(executed=1, cache_hits=3), "executed 1"),
        (dict(quarantined=1, cache_hits=3), "quarantined 1"),
    ],
)
def test_a_doctored_warm_sweep_trips_its_check(doctored, phrase):
    assert check_cold(COLD) == [] and check_warm(COLD, WARM) == []
    failures = check_warm(COLD, dataclasses.replace(WARM, **doctored))
    assert len(failures) == 1 and phrase in failures[0]


def test_a_quarantined_cold_trial_fails():
    assert check_cold(dataclasses.replace(COLD, quarantined=2, executed=2))


def test_declared_metrics_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert END_TO_END_UNITS == end_to_end
    assert wl.per_layer_units() == per_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == wl.WORKLOADS


TINY_CASES = [
    wl.Case("tiny_attack", 256, adversary="spoofing"),
    wl.Case("tiny_gilbert", 300, topology=TopologySpec(kind="gilbert"), check_reachable=True),
    wl.Case("tiny_sparse", 300, topology=TopologySpec(kind="scale_free", sparse=True)),
]


def _layers_add_up(metrics):
    total = sum(metrics[name] for name in wl.LAYER_TIME_METRICS) + metrics["trace.unattributed_s"]
    assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9)


def test_traced_protocol_run_matches_untraced_and_adds_up():
    measurement, tracer = wl.trace_protocol(TINY_CASES, 5, wl.prepare(TINY_CASES, 5))
    assert measurement.failures == [] and measurement.failed == 0
    assert measurement.attempted == 2 * len(TINY_CASES)
    emitted = set(measurement.metrics) - {wl.case_metric(c.name) for c in TINY_CASES}
    assert emitted == set(wl.per_layer_units())
    _layers_add_up(measurement.metrics)
    assert measurement.metrics["engine.phases"] > 0 and measurement.metrics["jamming.calls"] > 0
    assert measurement.metrics["topology.frontier_calls"] > 0
    assert measurement.metrics["core.quietrule_s"] > 0
    assert {s.run for s in tracer.spans} == {c.name for c in TINY_CASES}

    env = dict(workload="tiny", seed=5, git_sha=None, source_sha256="0", python="3", numpy="2", nproc=1)
    trace = json.loads(json.dumps(wl.trace_document(env, measurement.metrics, tracer)))
    assert "engine" in report.report(trace) and "topology.frontier_calls" in report.report(trace)
    assert "+0.0000" in report.diff(trace, trace)


def test_traced_sweep_matches_untraced_and_adds_up(tmp_path):
    settings = wl.ExperimentSettings(
        n=32, trials=1, quick=True, seed=3, jobs=2, cache_dir=str(tmp_path / "s")
    )
    measurement, _ = wl.trace_sweep(tmp_path, settings, experiments=["E1", "E3"])
    assert measurement.failures == [] and measurement.failed == 0
    assert set(measurement.metrics) == set(wl.per_layer_units())
    _layers_add_up(measurement.metrics)
    metrics = measurement.metrics
    assert metrics["runner.executed"] == metrics["runner.cache_hits"] > 0
    assert metrics["runner.hit_ratio"] == 0.5
    assert metrics["cache.get_s"] > 0 and metrics["cache.put_s"] > 0 and metrics["cache.bytes"] > 0

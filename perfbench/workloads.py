"""The benchmark's workloads, their timed passes, and the metrics they report.

Runs are closed-loop: one protocol run at a time.  Only ``sweep-registry``
starts worker processes, through the runner's own ``jobs=2`` pool.

A protocol workload is a fixed batch of named cases, and a *pass* runs every
case once.  For ``sweep-registry`` a pass regenerates the quick registry
into a fresh trial store (cold) and then once more from that store (warm),
so that the warm tables can be checked against the cold ones.  A measured
run makes at least ``MIN_PASSES`` passes, and more while they fit in its
``--seconds``; ``wall_s`` is the median pass (for the sweep, the median cold
regeneration).

The warm regeneration is timed only in the traced run (``runner.warm_s``),
without a bound: its 0.15-0.3 s of single-process Python swung 1.6x between
host speed levels on the shared 2-vCPU VM the benchmark was tuned on.
Across series of ten runs that each timed ~30 warm passes, the spread
(IQR/median) of the runs' figures was 0.29-0.35, whether a run reported the
mean or the first quartile of its passes: above any bound the benchmark may
set.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary import Adversary
from repro.core.api import make_adversary
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.experiments import ExperimentSettings, render_result
from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.runner import span_scope, track_stats
from repro.simulation.config import SimulationConfig
from repro.simulation.network import Network
from repro.simulation.rng import RandomSource
from repro.simulation.topology import (
    Topology,
    TopologySpec,
    build_topology,
    gilbert_connectivity_radius,
)

from perfbench.checks import CaseResult, SweepPass, check_case, check_cold, check_warm
from perfbench.tracing import (
    TracedPhaseEngine,
    TracedQuietRule,
    Tracer,
    cache_traced,
    instrument_adversary,
    instrument_topology,
    jamming_traced,
)

# --------------------------------------------------------------------------- #
# Workload definitions                                                        #
# --------------------------------------------------------------------------- #


DEPLOYMENT_SEED = 2012
"""Seed of every graph; ``--seed`` drives the protocol's and Carol's randomness.

Multi-hop cost depends on the graph drawn: sub-critical draws at n = 5000
ran from 1e7 to 5.7e8 slots.  A fixed deployment keeps graph cost out of the
run-to-run spread.  The sub-critical case also fixes its run seed: on one
graph, run seeds still spread it from 3.5e7 to 4.3e8 slots (the schedule
doubles with every extra round), and its largest phase sets peak memory.
"""


@dataclass(frozen=True)
class Case:
    """One protocol run of a workload (k = 2, ε = 0.1, fast engine)."""

    name: str
    n: int
    adversary: str = "none"
    topology: Optional[TopologySpec] = None
    check_reachable: bool = False
    """Delivery must cover exactly Alice's connected component."""
    seed: Optional[int] = None
    """A fixed run seed, for a case whose cost the seed would swamp."""

    @property
    def multihop(self) -> bool:
        return self.topology is not None


SINGLEHOP_ATTACK = [
    Case(name, 4096, adversary=name) for name in ("phase_blocker", "spoofing", "bursty", "random")
]
MULTIHOP_GILBERT = [
    Case("gilbert_dense", 2048, topology=TopologySpec(kind="gilbert"), check_reachable=True),
    Case("gilbert_sparse", 50_000, topology=TopologySpec(kind="gilbert"), check_reachable=True),
    Case(
        "gilbert_subcritical",
        5000,
        topology=TopologySpec(
            kind="gilbert", radius=0.7 * gilbert_connectivity_radius(5000), sparse=True
        ),
        seed=DEPLOYMENT_SEED,
    ),
    Case("scale_free", 10_000, topology=TopologySpec(kind="scale_free", sparse=True)),
]
MILLION_BUILD = [Case("million", 1_000_000)]

PROTOCOL_WORKLOADS: Dict[str, List[Case]] = {
    "singlehop-attack": SINGLEHOP_ATTACK,
    "multihop-gilbert": MULTIHOP_GILBERT,
    "million-build": MILLION_BUILD,
}
SWEEP_WORKLOAD = "sweep-registry"
WORKLOADS = list(PROTOCOL_WORKLOADS) + [SWEEP_WORKLOAD]

SWEEP_N = 256
SWEEP_TRIALS = 2
SWEEP_JOBS = 2
MIN_PASSES = 2

# --------------------------------------------------------------------------- #
# Per-layer metric catalogue (every traced run reports all of them)           #
# --------------------------------------------------------------------------- #

SPAN_METRICS = {
    "jamming.materialize": "jamming.materialize_s",
    "engine.singlehop": "engine.singlehop_s",
    "engine.dense": "engine.dense_s",
    "engine.sparse": "engine.sparse_s",
    "adversary.plan": "adversary.plan_s",
    "topology.build": "topology.build_s",
    "topology.frontier": "topology.frontier_s",
    "topology.neighbor_query": "topology.neighbor_query_s",
    "network.build": "network.build_s",
    "core.quietrule": "core.quietrule_s",
    "core.run": "core.self_s",
    "experiments.run": "experiments.self_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
}
"""Span name -> metric holding the span's total self time."""

RUNNER_STAGES = {
    "schedule": "runner.schedule_s",
    "fan-out": "runner.fanout_s",
    "reassemble": "runner.reassemble_s",
}

LAYER_TIME_METRICS = list(SPAN_METRICS.values()) + list(RUNNER_STAGES.values())
"""Self times that, with ``trace.unattributed_s``, add up to ``trace.wall_s``."""

COUNT_METRICS = [
    "jamming.calls",
    "jamming.jammed_slots",
    "jamming.spoofs",
    "engine.phases",
    "engine.slots",
    "adversary.plan_calls",
    "topology.frontier_calls",
    "topology.neighbor_query_calls",
]

MODEL_METRICS = {
    "model.slots": "slot",
    "model.rounds": "round",
    "model.delivery_frac": "ratio",
    "model.node_cost_max": "energy",
    "model.alice_cost": "energy",
    "model.adversary_spend": "energy",
}


def case_metric(name: str) -> str:
    return f"case.{name}_s"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""

    units = {name: "s" for name in LAYER_TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(
        {
            "engine.ns_per_slot": "ns/slot",
            "topology.bytes": "B",
            "network.alloc_peak_mib": "MiB",
            "runner.executed": "count",
            "runner.cache_hits": "count",
            "runner.retries": "count",
            "runner.quarantined": "count",
            "runner.hit_ratio": "ratio",
            "runner.fanout_efficiency": "ratio",
            "runner.warm_s": "s",
            "cache.bytes": "B",
        }
    )
    units.update(MODEL_METRICS)
    for cases in PROTOCOL_WORKLOADS.values():
        units.update({case_metric(c.name): "s" for c in cases})
    units.update({case_metric(eid): "s" for eid in experiment_ids()})
    units.update({"trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s"})
    return units


def trace_document(
    env: Dict[str, object], metrics: Dict[str, float], tracer: Tracer
) -> Dict[str, object]:
    """What a traced run writes out: its spans, counters and per-layer metrics."""

    return {
        "env": env,
        "units": per_layer_units(),
        "layer_time_metrics": LAYER_TIME_METRICS,
        "metrics": metrics,
        **tracer.as_json(),
    }


# --------------------------------------------------------------------------- #
# Protocol runs                                                               #
# --------------------------------------------------------------------------- #


@dataclass
class Prepared:
    """A case with its configuration and a fresh adversary, built in set-up."""

    case: Case
    config: SimulationConfig
    adversary: Adversary


def prepare(cases: Sequence[Case], seed: int) -> List[Prepared]:
    return [
        Prepared(
            case,
            SimulationConfig(
                n=case.n,
                k=2,
                epsilon=0.1,
                seed=seed if case.seed is None else case.seed,
                topology=case.topology,
            ),
            make_adversary(case.adversary),
        )
        for case in cases
    ]


def reachable_from_alice(topology: Topology) -> int:
    """Nodes in Alice's connected component (the class method: never traced)."""

    everyone = np.ones(topology.n, dtype=bool)
    alice_row = np.array([topology.n], dtype=np.int64)
    return int(type(topology).frontier_reachable(topology, alice_row, everyone).sum())


def run_case(p: Prepared, tracer: Optional[Tracer] = None) -> Tuple[CaseResult, float]:
    """One protocol run, from topology build to outcome; returns its host time.

    The graph is drawn from ``DEPLOYMENT_SEED`` and everything else from the
    run's seed.  Traced, every layer wrapper is installed around the same
    calls.
    """

    case, config = p.case, p.config
    protocol_cls = MultiHopBroadcast if case.multihop else EpsilonBroadcast
    build, network_cls, extra = build_topology, Network, {}
    if tracer is not None:
        tracer.run = case.name
        build = tracer.wrap("topology.build", build_topology)
        network_cls = tracer.wrap("network.build", Network)
    start = time.perf_counter()
    with tracer.span("core.run") if tracer is not None else nullcontext():
        topology = build(config.topology, config.n, RandomSource(DEPLOYMENT_SEED))
        network = network_cls(config, topology=topology)
        if tracer is not None:
            instrument_topology(topology, tracer)
            instrument_adversary(p.adversary, tracer)
            extra["engine"] = TracedPhaseEngine(network, tracer)
            if case.multihop:
                extra["quiet_rule"] = TracedQuietRule(tracer=tracer)
        outcome = protocol_cls(config, adversary=p.adversary, network=network, **extra).run()
    if tracer is not None:
        tracer.add("topology.bytes", topology.memory_bytes())
    seconds = time.perf_counter() - start
    delivery, costs = outcome.delivery, outcome.costs
    result = CaseResult(
        name=case.name,
        n=config.n,
        epsilon=config.epsilon,
        single_hop=topology.is_single_hop,
        informed=delivery.informed,
        terminated_informed=delivery.terminated_informed,
        terminated_uninformed=delivery.terminated_uninformed,
        slots=delivery.slots_elapsed,
        rounds=delivery.rounds_executed,
        terminated_by_cap=outcome.terminated_by_cap,
        alice_cost=costs.alice,
        node_cost_max=costs.node_max,
        adversary_spend=costs.adversary,
        adversary_budget=config.adversary_total_budget,
        reachable=reachable_from_alice(topology) if case.check_reachable else None,
    )
    return result, seconds


@dataclass
class PassResult:
    results: Dict[str, CaseResult] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def protocol_pass(prepared: Sequence[Prepared], tracer: Optional[Tracer] = None) -> PassResult:
    """Run each case once, checking its outputs; a raise counts as a failure."""

    out = PassResult()
    for p in prepared:
        gc.collect()
        out.attempted += 1
        try:
            result, seconds = run_case(p, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = [f"{p.case.name}: raised"]
        else:
            out.results[p.case.name] = result
            out.seconds[p.case.name] = seconds
            problems = check_case(result)
        if problems:
            out.failures.extend(problems)
            out.failed += 1
    gc.collect()
    return out


def network_alloc_peak_mib(cases: Sequence[Case], seed: int) -> float:
    """Largest traced allocation peak of one ``Network`` construction."""

    peak = 0.0
    for p in prepare(cases, seed):
        topology = build_topology(p.config.topology, p.config.n, RandomSource(DEPLOYMENT_SEED))
        tracemalloc.start()
        try:
            network = Network(p.config, topology=topology)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        del network, topology
        gc.collect()
    return peak


def model_metrics(results: Sequence[CaseResult]) -> Dict[str, float]:
    return {
        "model.slots": float(sum(r.slots for r in results)),
        "model.rounds": float(sum(r.rounds for r in results)),
        "model.delivery_frac": sum(r.informed for r in results) / sum(r.n for r in results),
        "model.node_cost_max": max(r.node_cost_max for r in results),
        "model.alice_cost": sum(r.alice_cost for r in results),
        "model.adversary_spend": sum(r.adversary_spend for r in results),
    }


# --------------------------------------------------------------------------- #
# Registry sweep                                                              #
# --------------------------------------------------------------------------- #


def sweep_settings(seed: int, store: Path) -> ExperimentSettings:
    return ExperimentSettings(
        n=SWEEP_N, trials=SWEEP_TRIALS, quick=True, seed=seed, jobs=SWEEP_JOBS, cache_dir=str(store)
    )


@dataclass
class SweepResult:
    passes: List[SweepPass] = field(default_factory=list)
    seconds: Dict[str, float] = field(default_factory=dict)
    stages: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    raised: List[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def sweep_pass(
    settings: ExperimentSettings,
    experiments: Sequence[str],
    tracer: Optional[Tracer] = None,
    stages: bool = False,
) -> SweepResult:
    """Run each experiment once; with ``stages``, sum the runner's stage spans."""

    out = SweepResult()
    for eid in experiments:
        if tracer is not None:
            tracer.run = eid
        timed = tracer.span("experiments.run") if tracer is not None else nullcontext()
        with track_stats() as stats, span_scope() if stages else nullcontext([]) as spans:
            start = time.perf_counter()
            try:
                with timed:
                    result = run_experiment(eid, settings)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.raised.append(eid)
                continue
            out.seconds[eid] = time.perf_counter() - start
        for span in spans:
            out.stages[span.name] = out.stages.get(span.name, 0.0) + span.seconds
        out.retries += stats.retries
        out.passes.append(
            SweepPass(
                experiment=eid,
                table=render_result(result),
                trials=stats.cache_hits + stats.cache_misses,
                executed=stats.executed,
                cache_hits=stats.cache_hits,
                quarantined=stats.quarantined,
            )
        )
    return out


def sweep_outcome(
    cold: SweepResult, warm: Optional[SweepResult]
) -> Tuple[int, int, List[str]]:
    """Attempted trials, failed trials, and the failures of a cold (and warm) pass."""

    runs = [cold] if warm is None else [cold, warm]
    failures = [f"{eid}: raised" for r in runs for eid in r.raised]
    failed = len(failures)
    attempted = failed + sum(p.trials for r in runs for p in r.passes)
    for p in cold.passes:
        failures.extend(check_cold(p))
        failed += p.quarantined
    cold_by_id = {p.experiment: p for p in cold.passes}
    for p in warm.passes if warm is not None else []:
        if p.experiment in cold_by_id:
            problems = check_warm(cold_by_id[p.experiment], p)
        else:
            problems = [f"{p.experiment}: no cold table"]
        if problems:
            failures.extend(problems)
            failed += p.trials
    return attempted, min(failed, attempted), failures


def store_bytes(store: Path) -> int:
    return sum(f.stat().st_size for f in store.rglob("*") if f.is_file())


# --------------------------------------------------------------------------- #
# Measured and traced runs                                                    #
# --------------------------------------------------------------------------- #


@dataclass
class Measurement:
    attempted: int
    failed: int
    failures: List[str]
    metrics: Dict[str, float]


def _another(started: float, cost: float, seconds: float, done: int) -> bool:
    """Another pass of ``cost`` seconds: always up to ``MIN_PASSES``, then if it fits."""

    return done < MIN_PASSES or (time.perf_counter() - started) + cost <= seconds


def measure_protocol(
    cases: Sequence[Case], seed: int, seconds: float, first: List[Prepared]
) -> Measurement:
    started = time.perf_counter()
    runs = [protocol_pass(first)]
    while _another(started, runs[-1].total, seconds, len(runs)):
        runs.append(protocol_pass(prepare(cases, seed)))
    return Measurement(
        attempted=sum(r.attempted for r in runs),
        failed=sum(r.failed for r in runs),
        failures=[f for r in runs for f in r.failures],
        metrics={"wall_s": statistics.median(r.total for r in runs)},
    )


def measure_sweep(
    new_settings: Callable[[], ExperimentSettings], first: ExperimentSettings, seconds: float
) -> Measurement:
    """Cold passes, each into a fresh store and checked against a warm pass."""

    experiments = experiment_ids()
    started = time.perf_counter()
    series: List[Tuple[SweepResult, SweepResult]] = []
    settings = first
    while True:
        cold = sweep_pass(settings, experiments)
        warm = sweep_pass(settings, experiments)
        series.append((cold, warm))
        if not _another(started, cold.total + warm.total, seconds, len(series)):
            break
        settings = new_settings()
    attempted, failed, failures = 0, 0, []
    for cold, warm in series:
        a, f, problems = sweep_outcome(cold, warm)
        attempted, failed, failures = attempted + a, failed + f, failures + problems
    return Measurement(
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics={"wall_s": statistics.median(cold.total for cold, _ in series)},
    )


def trace_protocol(
    cases: Sequence[Case], seed: int, first: List[Prepared]
) -> Tuple[Measurement, Tracer]:
    """An untraced pass, then a traced one; their outcomes must be equal."""

    plain = protocol_pass(first)
    tracer = Tracer()
    wall_start = time.perf_counter()
    with jamming_traced(tracer):
        traced = protocol_pass(prepare(cases, seed), tracer)
    wall = time.perf_counter() - wall_start
    failures = plain.failures + traced.failures
    failed = plain.failed + traced.failed
    for name, result in traced.results.items():
        if name in plain.results and result.model() != plain.results[name].model():
            failures.append(f"{name}: traced outcome differs from the untraced one")
            failed += 1

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    for span, seconds in tracer.self_times().items():
        metrics[SPAN_METRICS[span]] = seconds
    for name in COUNT_METRICS + ["topology.bytes"]:
        metrics[name] = float(tracer.counts.get(name, 0))
    engine_s = sum(metrics[f"engine.{path}_s"] for path in ("singlehop", "dense", "sparse"))
    if metrics["engine.slots"]:
        metrics["engine.ns_per_slot"] = engine_s / metrics["engine.slots"] * 1e9
    metrics["network.alloc_peak_mib"] = network_alloc_peak_mib(cases, seed)
    if traced.results:
        metrics.update(model_metrics(list(traced.results.values())))
    for name, seconds in traced.seconds.items():
        metrics[case_metric(name)] = seconds
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - tracer.top_level_seconds()
    metrics["trace.overhead_s"] = traced.total - plain.total
    return (
        Measurement(plain.attempted + traced.attempted, failed, failures, metrics),
        tracer,
    )


def trace_sweep(
    workdir: Path, settings: ExperimentSettings, experiments: Optional[Sequence[str]] = None
) -> Tuple[Measurement, Tracer]:
    """Untraced cold+warm, traced cold+warm, then a serial cold pass.

    Every pass that needs a cold store gets a fresh one.  The serial
    (``jobs=1``) pass gives the trial compute that ``fanout_efficiency``
    divides by the parallel fan-out time.
    """

    experiments = list(experiments if experiments is not None else experiment_ids())
    plain_cold = sweep_pass(settings, experiments)
    plain_warm = sweep_pass(settings, experiments)

    tracer = Tracer()
    traced_store = Path(tempfile.mkdtemp(dir=workdir))
    traced_settings = settings.with_(cache_dir=str(traced_store))
    wall_start = time.perf_counter()
    with cache_traced(tracer):
        cold = sweep_pass(traced_settings, experiments, tracer, stages=True)
        warm = sweep_pass(traced_settings, experiments, tracer, stages=True)
    wall = time.perf_counter() - wall_start
    cache_bytes = store_bytes(traced_store)

    serial_store = Path(tempfile.mkdtemp(dir=workdir))
    serial = sweep_pass(
        settings.with_(cache_dir=str(serial_store), jobs=1), experiments, stages=True
    )

    attempted, failed, failures = 0, 0, []
    for series in ((plain_cold, plain_warm), (cold, warm), (serial, None)):
        a, f, problems = sweep_outcome(*series)
        attempted, failed, failures = attempted + a, failed + f, failures + problems

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    self_times = tracer.self_times()
    for span, seconds in self_times.items():
        metrics[SPAN_METRICS[span]] = seconds
    stage = {
        name: cold.stages.get(name, 0.0) + warm.stages.get(name, 0.0)
        for name in RUNNER_STAGES
    }
    # Store reads happen inside the schedule stage and writes inside fan-out,
    # so each stage's own time excludes them; the harness (experiment code
    # around run_sweep) keeps what the stages do not cover.
    metrics["runner.schedule_s"] = stage["schedule"] - metrics["cache.get_s"]
    metrics["runner.fanout_s"] = stage["fan-out"] - metrics["cache.put_s"]
    metrics["runner.reassemble_s"] = stage["reassemble"]
    metrics["experiments.self_s"] = tracer.top_level_seconds() - sum(stage.values())
    executed = sum(p.executed for p in cold.passes + warm.passes)
    hits = sum(p.cache_hits for p in cold.passes + warm.passes)
    lookups = sum(p.trials for p in cold.passes + warm.passes)
    metrics["runner.executed"] = float(executed)
    metrics["runner.cache_hits"] = float(hits)
    metrics["runner.retries"] = float(cold.retries + warm.retries)
    metrics["runner.quarantined"] = float(sum(p.quarantined for p in cold.passes + warm.passes))
    metrics["runner.hit_ratio"] = hits / lookups if lookups else 0.0
    parallel_fanout = cold.stages.get("fan-out", 0.0)
    if parallel_fanout:
        metrics["runner.fanout_efficiency"] = serial.stages.get("fan-out", 0.0) / (
            settings.resolved_jobs * parallel_fanout
        )
    metrics["runner.warm_s"] = warm.total
    metrics["cache.bytes"] = float(cache_bytes)
    for eid, seconds in cold.seconds.items():
        metrics[case_metric(eid)] = seconds
    plain_tables = {p.experiment: p.table for p in plain_cold.passes}
    for p in cold.passes:
        if plain_tables.get(p.experiment) != p.table:
            failures.append(f"{p.experiment}: traced table differs from the untraced one")
            failed = min(failed + p.trials, attempted)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - tracer.top_level_seconds()
    metrics["trace.overhead_s"] = (cold.total + warm.total) - (plain_cold.total + plain_warm.total)
    for store in (traced_store, serial_store):
        shutil.rmtree(store, ignore_errors=True)
    return Measurement(attempted, failed, failures, metrics), tracer

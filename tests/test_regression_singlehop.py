"""Regression: the default single-hop model is bit-identical to the seed code.

The topology refactor threads a :class:`~repro.simulation.topology.Topology`
through the configuration, network, channel, and both engines.  On the
default (single-hop) topology every one of those layers must take exactly the
pre-refactor code path and consume exactly the pre-refactor random draws, so
that same-seed runs reproduce the seed code's outcomes bit for bit.

The golden snapshots below were captured by running the *pre-refactor* code
(with the stable CRC-32 stream hashing of :mod:`repro.simulation.rng`, which
makes runs reproducible across interpreter processes — the built-in ``hash``
the seed originally used was salted per process) on ``n = 40`` for a roster
of adversaries, both engines, and two seeds.  Any change to these numbers
means the RNG draw sequence of the default model moved — which is exactly
what this test exists to catch.

The ``bursty`` and ``spoofing`` rows were captured later, from the code that
still built burst schedules and spoof candidates slot by slot in Python, so
they pin the draws of the vectorised jam-plan materialisation too.

The ``fast`` rows were re-captured once, when the fast engine moved from
per-slot aggregate counts to sampled send events with an exact informed
stop; that moved its random stream.  The ``slot`` rows were not touched.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    BurstyJammer,
    NullAdversary,
    NUniformSplitAdversary,
    PhaseBlockingAdversary,
    RandomJammer,
    SpoofingAdversary,
)
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.simulation import SimulationConfig, TopologySpec

ADVERSARIES = {
    "none": NullAdversary,
    "blocker": lambda: PhaseBlockingAdversary(max_total_spend=2000),
    "random": lambda: RandomJammer(rate=0.3, max_total_spend=1500),
    "splitter": lambda: NUniformSplitAdversary(target_uninformed=3),
    "bursty": lambda: BurstyJammer(burst_length=4, period=8, max_total_spend=1500),
    "spoofing": lambda: SpoofingAdversary(max_total_spend=1500),
}

# (adversary, engine, seed) -> pre-refactor snapshot at n = 40.
GOLDEN = {
    ("none", "fast", 3): {"alice": 509.0, "adversary": 0.0, "node_mean": 1.15, "node_max": 2.0, "node_total": 46.0, "informed": 40, "slots": 2373},
    ("none", "fast", 11): {"alice": 526.0, "adversary": 0.0, "node_mean": 1.05, "node_max": 2.0, "node_total": 42.0, "informed": 40, "slots": 2373},
    ("none", "slot", 3): {"alice": 492.0, "adversary": 0.0, "node_mean": 1.075, "node_max": 2.0, "node_total": 43.0, "informed": 40, "slots": 2373},
    ("none", "slot", 11): {"alice": 494.0, "adversary": 0.0, "node_mean": 1.05, "node_max": 2.0, "node_total": 42.0, "informed": 40, "slots": 2373},
    ("blocker", "fast", 3): {"alice": 707.0, "adversary": 2000.0, "node_mean": 1726.0, "node_max": 1752.0, "node_total": 69040.0, "informed": 40, "slots": 6717},
    ("blocker", "fast", 11): {"alice": 739.0, "adversary": 2000.0, "node_mean": 1490.55, "node_max": 1528.0, "node_total": 59622.0, "informed": 40, "slots": 6717},
    ("blocker", "slot", 3): {"alice": 670.0, "adversary": 2000.0, "node_mean": 1674.6, "node_max": 1705.0, "node_total": 66984.0, "informed": 40, "slots": 6717},
    ("blocker", "slot", 11): {"alice": 725.0, "adversary": 2000.0, "node_mean": 1752.175, "node_max": 1791.0, "node_total": 70087.0, "informed": 40, "slots": 6717},
    ("random", "fast", 3): {"alice": 470.0, "adversary": 711.0, "node_mean": 1.125, "node_max": 2.0, "node_total": 45.0, "informed": 40, "slots": 2373},
    ("random", "fast", 11): {"alice": 751.0, "adversary": 1500.0, "node_mean": 2.075, "node_max": 3.0, "node_total": 83.0, "informed": 40, "slots": 6717},
    ("random", "slot", 3): {"alice": 492.0, "adversary": 711.0, "node_mean": 1.075, "node_max": 2.0, "node_total": 43.0, "informed": 40, "slots": 2373},
    ("random", "slot", 11): {"alice": 725.0, "adversary": 1500.0, "node_mean": 1.05, "node_max": 2.0, "node_total": 42.0, "informed": 40, "slots": 6717},
    ("splitter", "fast", 3): {"alice": 488.0, "adversary": 4421.0, "node_mean": 759.95, "node_max": 10155.0, "node_total": 30398.0, "informed": 37, "slots": 53760},
    ("splitter", "fast", 11): {"alice": 551.0, "adversary": 4421.0, "node_mean": 758.175, "node_max": 10182.0, "node_total": 30327.0, "informed": 37, "slots": 53760},
    ("splitter", "slot", 3): {"alice": 492.0, "adversary": 4421.0, "node_mean": 758.7, "node_max": 10159.0, "node_total": 30348.0, "informed": 37, "slots": 53760},
    ("splitter", "slot", 11): {"alice": 494.0, "adversary": 4421.0, "node_mean": 760.55, "node_max": 10208.0, "node_total": 30422.0, "informed": 37, "slots": 53760},
    ("bursty", "fast", 3): {"alice": 725.0, "adversary": 1500.0, "node_mean": 14.175, "node_max": 16.0, "node_total": 567.0, "informed": 40, "slots": 6717},
    ("bursty", "fast", 11): {"alice": 701.0, "adversary": 1500.0, "node_mean": 14.35, "node_max": 17.0, "node_total": 574.0, "informed": 40, "slots": 6717},
    ("bursty", "slot", 3): {"alice": 670.0, "adversary": 1500.0, "node_mean": 14.15, "node_max": 16.0, "node_total": 566.0, "informed": 40, "slots": 6717},
    ("bursty", "slot", 11): {"alice": 725.0, "adversary": 1500.0, "node_mean": 14.275, "node_max": 16.0, "node_total": 571.0, "informed": 40, "slots": 6717},
    ("spoofing", "fast", 3): {"alice": 689.0, "adversary": 1500.0, "node_mean": 3.075, "node_max": 4.0, "node_total": 123.0, "informed": 40, "slots": 6717},
    ("spoofing", "fast", 11): {"alice": 717.0, "adversary": 1500.0, "node_mean": 3.075, "node_max": 4.0, "node_total": 123.0, "informed": 40, "slots": 6717},
    ("spoofing", "slot", 3): {"alice": 670.0, "adversary": 1500.0, "node_mean": 3.15, "node_max": 4.0, "node_total": 126.0, "informed": 40, "slots": 6717},
    ("spoofing", "slot", 11): {"alice": 725.0, "adversary": 1500.0, "node_mean": 3.075, "node_max": 4.0, "node_total": 123.0, "informed": 40, "slots": 6717},
}


def run_snapshot(adversary_name, engine, seed, protocol_cls=EpsilonBroadcast, config=None):
    config = config if config is not None else SimulationConfig(n=40, seed=seed)
    protocol = protocol_cls(config, adversary=ADVERSARIES[adversary_name](), engine=engine)
    outcome = protocol.run()
    snapshot = protocol.network.cost_snapshot()
    snapshot["informed"] = outcome.delivery.informed
    snapshot["slots"] = outcome.delivery.slots_elapsed
    return snapshot


@pytest.mark.parametrize("adversary_name,engine,seed", sorted(GOLDEN))
def test_default_model_matches_pre_refactor_golden(adversary_name, engine, seed):
    assert run_snapshot(adversary_name, engine, seed) == GOLDEN[(adversary_name, engine, seed)]


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_explicit_single_hop_spec_is_bit_identical_to_default(engine):
    """Passing topology=TopologySpec.single_hop() must not move a single draw."""

    config = SimulationConfig(n=40, seed=3, topology=TopologySpec.single_hop())
    assert run_snapshot("blocker", engine, 3, config=config) == GOLDEN[("blocker", engine, 3)]


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_multihop_variant_on_single_hop_is_bit_identical(engine):
    """MultiHopBroadcast defers to the base protocol on a clique."""

    snapshot = run_snapshot("splitter", engine, 11, protocol_cls=MultiHopBroadcast)
    assert snapshot == GOLDEN[("splitter", engine, 11)]


@pytest.mark.parametrize("engine", ["fast", "slot"])
def test_same_seed_same_outcome_within_process(engine):
    a = run_snapshot("random", engine, 3)
    b = run_snapshot("random", engine, 3)
    assert a == b

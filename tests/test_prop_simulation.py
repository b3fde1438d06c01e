"""Property-based tests (hypothesis) for the simulation substrate invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary import BurstyJammer
from repro.simulation import (
    Channel,
    LedgerArray,
    JamPlan,
    JamTargeting,
    RandomSource,
    SimulationConfig,
    clip_probability,
    make_nack,
    make_payload,
)
from repro.simulation.jamming import materialize_jam_slots, materialize_spoof_slots


class TestEnergyLedgerProperties:
    @given(
        charges=st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=30),
        budget=st.floats(min_value=0, max_value=500, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_policy_never_exceeds_budget(self, charges, budget):
        ledger = LedgerArray(2, node_budget=1.0, alice_budget=1.0, carol_budget=budget)
        for units in charges:
            ledger.charge_bulk(ledger.carol, units)
        assert ledger.spent(ledger.carol) <= budget + 1e-9
        assert ledger.remaining(ledger.carol) >= -1e-9

    @given(charges=st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_record_policy_spent_equals_sum(self, charges):
        ledger = LedgerArray(2, node_budget=10, alice_budget=10, carol_budget=10)
        for units in charges:
            ledger.charge_bulk(1, units)
        assert ledger.spent(1) == pytest.approx(math.fsum(charges))


class TestChannelProperties:
    @given(
        num_payloads=st.integers(min_value=0, max_value=5),
        num_nacks=st.integers(min_value=0, max_value=5),
        listeners=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        jam_mode=st.sampled_from(["none", "all", "only", "except"]),
        jam_nodes=st.sets(st.integers(min_value=0, max_value=30), max_size=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_channel_invariants(self, num_payloads, num_nacks, listeners, jam_mode, jam_nodes):
        channel = Channel()
        transmissions = [make_payload(-1, "m", "sig")] * num_payloads + [
            make_nack(100 + i) for i in range(num_nacks)
        ]
        targeting = {
            "none": JamTargeting.none(),
            "all": JamTargeting.everyone(),
            "only": JamTargeting.only(jam_nodes),
            "except": JamTargeting.sparing(jam_nodes),
        }[jam_mode]
        resolution = channel.resolve_slot(transmissions, listeners, targeting)

        # Every listener gets exactly one observation.
        assert set(resolution.observations) == set(listeners)
        total = len(transmissions)
        for listener, observation in resolution.observations.items():
            jammed = targeting.affects(listener)
            if total == 0 and not jammed:
                assert observation.is_silent
            if total >= 2:
                # Collisions are noise for everyone: nobody decodes a frame.
                assert observation.message is None
            if observation.message is not None:
                # A decoded frame implies a single unjammed transmission.
                assert total == 1 and not jammed
            if total > 0:
                # Activity can never be perceived as silence (no forged silence).
                assert observation.is_noisy

    @given(
        listeners=st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
        spared=st.sets(st.integers(min_value=0, max_value=20), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_n_uniform_sparing_is_exact(self, listeners, spared):
        channel = Channel()
        resolution = channel.resolve_slot(
            [make_payload(-1, "m", "sig")], listeners, JamTargeting.sparing(spared)
        )
        for listener, observation in resolution.observations.items():
            if listener in spared:
                assert observation.message is not None
            else:
                assert observation.message is None


class TestJammingMaterialisationProperties:
    @given(
        num_slots=st.integers(min_value=0, max_value=500),
        requested=st.integers(min_value=0, max_value=800),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=80, deadline=None)
    def test_jam_slots_within_phase_and_unique(self, num_slots, requested, seed):
        plan = JamPlan(num_jam_slots=requested)
        slots = materialize_jam_slots(plan, num_slots, np.random.default_rng(seed))
        assert len(slots) == min(requested, num_slots)
        assert len(set(slots.tolist())) == len(slots)
        assert all(0 <= slot < num_slots for slot in slots.tolist())

    @given(
        num_slots=st.integers(min_value=1, max_value=300),
        count=st.integers(min_value=0, max_value=400),
        exclude=st.sets(st.integers(min_value=0, max_value=299), max_size=50),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=80, deadline=None)
    def test_spoof_slots_respect_exclusions(self, num_slots, count, exclude, seed):
        slots = materialize_spoof_slots(count, num_slots, np.random.default_rng(seed), exclude=exclude)
        slot_list = slots.tolist()
        assert len(set(slot_list)) == len(slot_list)
        assert not (set(slot_list) & exclude)
        assert all(0 <= slot < num_slots for slot in slot_list)


def _spoof_slots_oracle(count, num_slots, rng, exclude):
    """Spoof-slot selection as a per-slot list comprehension (the reference)."""

    if count <= 0 or num_slots <= 0:
        return np.empty(0, dtype=np.int64)
    excluded = set(int(x) for x in exclude)
    candidates = np.array([s for s in range(num_slots) if s not in excluded], dtype=np.int64)
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    chosen = min(count, candidates.size)
    return np.sort(rng.choice(candidates, size=chosen, replace=False))


def _burst_slots_oracle(burst_length, period, offset, num_slots):
    """The bursty jammer's schedule, built burst by burst (the reference)."""

    slots = []
    start = offset
    while start < num_slots:
        for slot in range(start, min(start + burst_length, num_slots)):
            slots.append(slot)
        start += period
    return tuple(slots)


class TestJammingMaterialisationOracles:
    """The array implementations draw exactly what the per-slot references draw.

    Each check compares the result and the generator state afterwards, so a
    change that consumes the random stream differently fails even when the
    chosen slots happen to agree.
    """

    @given(
        num_slots=st.integers(min_value=0, max_value=300),
        count=st.integers(min_value=0, max_value=400),
        exclude=st.lists(st.integers(min_value=-40, max_value=360), max_size=80),
        container=st.sampled_from(["set", "list", "ndarray"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=150, deadline=None)
    def test_spoof_slots_match_the_list_comprehension(
        self, num_slots, count, exclude, container, seed
    ):
        if container == "set":
            excluded = set(exclude)
        elif container == "ndarray":
            excluded = np.array(exclude, dtype=np.int64)
        else:
            excluded = list(exclude)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        slots = materialize_spoof_slots(count, num_slots, rng, exclude=excluded)
        expected = _spoof_slots_oracle(count, num_slots, oracle_rng, exclude)
        assert slots.dtype == np.int64
        np.testing.assert_array_equal(slots, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(
        num_slots=st.integers(min_value=0, max_value=500),
        indices=st.lists(st.integers(min_value=-30, max_value=600), max_size=120),
        presorted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_jam_slots_match_np_unique(self, num_slots, indices, presorted, seed):
        if presorted:
            indices = sorted(set(indices))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        slots = materialize_jam_slots(JamPlan(slot_indices=tuple(indices)), num_slots, rng)
        unique = np.unique(np.asarray(indices, dtype=np.int64))
        expected = (
            unique[(unique >= 0) & (unique < num_slots)]
            if num_slots > 0
            else np.empty(0, dtype=np.int64)
        )
        assert slots.dtype == np.int64
        np.testing.assert_array_equal(slots, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(
        burst_length=st.integers(min_value=1, max_value=20),
        slack=st.integers(min_value=0, max_value=20),
        offset=st.integers(min_value=0, max_value=400),
        num_slots=st.integers(min_value=0, max_value=400),
    )
    @example(burst_length=3, slack=0, offset=0, num_slots=10)  # burst_length == period
    @example(burst_length=4, slack=4, offset=50, num_slots=50)  # offset >= num_slots
    @example(burst_length=4, slack=4, offset=60, num_slots=50)
    @settings(max_examples=150, deadline=None)
    def test_burst_slots_match_the_loop(self, burst_length, slack, offset, num_slots):
        jammer = BurstyJammer(burst_length=burst_length, period=burst_length + slack, offset=offset)
        slots = jammer.burst_slots(num_slots)
        expected = _burst_slots_oracle(burst_length, burst_length + slack, offset, num_slots)
        assert slots == expected
        assert all(type(slot) is int for slot in slots)


class TestProbabilityAndConfigProperties:
    @given(value=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
    def test_clip_probability_range(self, value):
        assert 0.0 <= clip_probability(value) <= 1.0

    @given(
        # n >= 8 so that ln n > 1 and Alice's log-factor budget dominates a
        # node's (the paper's regime; the relation flips for toy n <= 2).
        n=st.integers(min_value=8, max_value=5000),
        f=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        k=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_budget_relationships(self, n, f, k):
        config = SimulationConfig(n=n, f=f, k=k)
        # Alice's budget always dominates a single node's budget.
        assert config.alice_budget >= config.node_budget
        # The aggregate adversary budget covers Carol plus every Byzantine node.
        assert config.adversary_total_budget >= config.carol_budget
        assert config.adversary_total_budget == pytest.approx(
            config.carol_budget + config.byzantine_count * config.node_budget
        )
        # Budgets are sublinear in n: a single node never holds n units.
        assert config.node_budget < config.budget_constant * n

    @given(seed=st.integers(min_value=0, max_value=2**30), name=st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_random_source_reproducibility(self, seed, name):
        a = RandomSource(seed).stream(name).random(3)
        b = RandomSource(seed).stream(name).random(3)
        assert np.allclose(a, b)

"""The engine→protocol boundary is arrays end to end.

Every engine path returns ``PhaseResult.newly_informed`` as a sorted, unique
``int64`` subset of the phase's cohort and, in request phases,
``node_noisy_heard`` aligned with ``roles.active_uninformed_ids``; the
protocol side applies a phase with mask
arithmetic (one vectorised quiet test per request phase) and never builds a
Python container per node.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.adversary import NUniformSplitAdversary, PhaseBlockingAdversary
from repro.adversary.spatial import plan_disk_jam
from repro.baselines import BalancedBackoffBroadcast
from repro.core import ProtocolParameters
from repro.core.alice import AlicePolicy
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.core.receiver import ReceiverPolicy
from repro.core.state import ProtocolState
from repro.core.termination import apply_request_phase
from repro.simulation import (
    ALICE_ID,
    JamMode,
    PhaseContext,
    PhaseKind,
    PhasePlan,
    PhaseResult,
    PhaseRoles,
    SimulationConfig,
)
from repro.simulation.topology import TopologySpec


def record_phases(protocol):
    """Run ``protocol`` and return every phase's ``(plan, roles, result)``."""

    seen = []
    run_phase = protocol.engine.run_phase

    def recording(plan, roles, jam_plan, start_slot=0):
        result = run_phase(plan, roles, jam_plan, start_slot=start_slot)
        seen.append((plan, roles, result))
        return result

    protocol.engine.run_phase = recording
    protocol.run()
    return seen


def slot_engine_run():
    config = SimulationConfig(n=24, seed=4)
    adversary = PhaseBlockingAdversary(max_total_spend=3000)
    return EpsilonBroadcast(config, adversary=adversary, engine="slot")


def single_hop_run():
    config = SimulationConfig(n=256, seed=4)
    return EpsilonBroadcast(config, adversary=PhaseBlockingAdversary(max_total_spend=20_000))


def multi_hop_run():
    config = SimulationConfig(n=300, seed=4, topology=TopologySpec(kind="gilbert"))
    return MultiHopBroadcast(config, quiet_rule="paper")


def baseline_run():
    config = SimulationConfig(n=128, seed=4)
    return BalancedBackoffBroadcast(config, adversary=PhaseBlockingAdversary(max_total_spend=500))


RUNS = {
    "slot": slot_engine_run,
    "fast-single-hop": single_hop_run,
    "fast-multi-hop": multi_hop_run,
    "baseline": baseline_run,
}


class TestPhaseResultContract:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_every_phase_returns_boundary_arrays(self, name):
        phases = record_phases(RUNS[name]())
        informed = 0
        request_cohorts = 0
        for plan, roles, result in phases:
            cohort = roles.active_uninformed_ids
            newly = result.newly_informed
            assert isinstance(newly, np.ndarray) and newly.dtype == np.int64, plan.name
            assert newly.ndim == 1
            assert np.all(np.diff(newly) > 0), f"{plan.name}: not sorted and unique"
            assert np.isin(newly, cohort).all(), f"{plan.name}: informed outside the cohort"
            heard = result.node_noisy_heard
            assert isinstance(heard, np.ndarray) and heard.dtype == np.int64, plan.name
            # Noise is reported for request phases only.
            expected = cohort.shape if plan.kind is PhaseKind.REQUEST else (0,)
            assert heard.shape == expected, plan.name
            assert (heard >= 0).all()
            informed += newly.size
            request_cohorts += plan.kind is PhaseKind.REQUEST and cohort.size > 0
        # Not vacuous: the run delivered through the boundary, and (for the
        # protocol runs) request phases evaluated a live cohort.
        assert informed > 0
        if name != "baseline":
            assert request_cohorts > 0

    def test_mark_informed_returns_the_changed_ids(self):
        state = ProtocolState(10)
        changed = state.mark_informed(np.array([2, 5, 7], dtype=np.int64), slot=3)
        assert changed.dtype == np.int64 and changed.tolist() == [2, 5, 7]
        # Duplicates are dropped from the result, order is kept.
        changed = state.mark_informed(np.array([1, 5, 9], dtype=np.int64), slot=4)
        assert changed.tolist() == [1, 9]
        assert state.informed_at_slot[[1, 2, 5, 9]].tolist() == [4, 3, 3, 4]


def request_result(heard, round_index):
    plan = PhasePlan(name="request", kind=PhaseKind.REQUEST, round_index=round_index, num_slots=64)
    return PhaseResult(
        plan=plan,
        newly_informed=np.zeros(0, dtype=np.int64),
        jammed_slots=0,
        adversary_spend=0.0,
        alice_noisy_heard=10_000,
        node_noisy_heard=np.asarray(heard, dtype=np.int64),
    )


class _IntegralThreshold(ReceiverPolicy):
    """A policy whose threshold is a whole number, so ``heard == threshold``
    is reachable."""

    def termination_threshold(self) -> float:
        return 30.0


class TestVectorisedQuietRule:
    @pytest.mark.parametrize("policy_cls", [ReceiverPolicy, _IntegralThreshold])
    def test_mask_matches_scalar_rule(self, policy_cls):
        policy = policy_cls(ProtocolParameters(k=2), 256)
        threshold = policy.termination_threshold()
        below, above = int(np.floor(threshold)), int(np.ceil(threshold))
        heard = np.array(
            [0, 1, below - 1, below, above, above + 1, 10_000], dtype=np.int64
        )
        if policy_cls is _IntegralThreshold:
            assert float(below) == threshold  # heard == threshold is covered
        earliest = policy.earliest_termination_round()
        for round_index in (earliest - 1, earliest, earliest + 1):
            mask = policy.quiet_mask(heard, round_index)
            scalar = [policy.should_terminate(int(h), round_index) for h in heard]
            assert mask.tolist() == scalar, round_index
        # The boundary itself: before the earliest round nobody quits, from it
        # on exactly the nodes at or below the threshold do.
        assert not policy.quiet_mask(heard, earliest - 1).any()
        assert policy.quiet_mask(heard, earliest).tolist() == [
            True, True, True, True, above <= threshold, False, False
        ]

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_apply_request_phase_matches_per_node_rule(self, offset):
        n = 200
        params = ProtocolParameters(k=2)
        alice, receiver = AlicePolicy(params, n), ReceiverPolicy(params, n)
        state = ProtocolState(n)
        state.mark_informed(np.arange(0, n, 3, dtype=np.int64), slot=1)
        cohort = state.active_uninformed_array()
        threshold = int(receiver.termination_threshold())
        heard = np.random.default_rng(7).integers(0, 2 * threshold + 2, size=cohort.size)
        round_index = receiver.earliest_termination_round() + offset
        expected = [
            int(node)
            for node, h in zip(cohort, heard)
            if receiver.should_terminate(int(h), round_index)
        ]
        decision = apply_request_phase(
            state, request_result(heard, round_index), alice, receiver, round_index
        )
        assert decision.terminated_nodes.dtype == np.int64
        assert decision.terminated_nodes.tolist() == expected
        assert state.terminated_uninformed_count() == len(expected)
        assert (len(expected) > 0) == (offset == 0)

    def test_empty_noise_array_means_nobody_heard_anything(self):
        n = 64
        params = ProtocolParameters(k=2)
        alice, receiver = AlicePolicy(params, n), ReceiverPolicy(params, n)
        state = ProtocolState(n)
        round_index = receiver.earliest_termination_round()
        decision = apply_request_phase(
            state, request_result([], round_index), alice, receiver, round_index
        )
        assert decision.terminated_nodes.tolist() == list(range(n))

    def test_misaligned_noise_array_is_rejected(self):
        n = 64
        params = ProtocolParameters(k=2)
        alice, receiver = AlicePolicy(params, n), ReceiverPolicy(params, n)
        state = ProtocolState(n)
        round_index = receiver.earliest_termination_round()
        with pytest.raises(ValueError):
            apply_request_phase(
                state, request_result([0] * (n - 1), round_index), alice, receiver, round_index
            )


class TestBoundaryMemory:
    def test_inform_then_request_phase_over_a_million_nodes(self):
        """No per-node Python container on the state-update path.

        Informing 10⁶ nodes and then running the quiet test over a 10⁶-node
        cohort (every node quiet, so every node terminates) allocates a few
        ``int64`` arrays, about 17 MiB in all.  One Python set of 10⁶ ints
        alone costs about 86 MiB, so any container on this path fails.
        """

        m = 1_000_000
        params = ProtocolParameters(k=2)
        alice, receiver = AlicePolicy(params, 2 * m), ReceiverPolicy(params, 2 * m)
        round_index = receiver.earliest_termination_round()
        alice.earliest_termination_round()
        state = ProtocolState(2 * m)
        newly = np.arange(0, 2 * m, 2, dtype=np.int64)
        result = request_result(np.zeros(m, dtype=np.int64), round_index)

        tracemalloc.start()
        try:
            changed = state.mark_informed(newly, slot=1)
            decision = apply_request_phase(state, result, alice, receiver, round_index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        assert changed.size == m
        assert decision.terminated_nodes.size == m
        assert state.terminated_uninformed_count() == m
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def context_for(kind, cohort, n=64):
    plan = PhasePlan(
        name=kind.value,
        kind=kind,
        round_index=5,
        num_slots=32,
        alice_send_prob=0.1 if kind is PhaseKind.INFORM else 0.0,
        nack_send_prob=0.01 if kind is PhaseKind.REQUEST else 0.0,
        uninformed_listen_prob=0.1,
    )
    return PhaseContext(
        plan=plan,
        roles=PhaseRoles.of(cohort),
        config=SimulationConfig(n=n, seed=1),
        adversary_remaining_budget=1e9,
    )


class TestAdversariesReadTheCohortArray:
    """Victim sets and targeting match the set arithmetic they replaced."""

    def test_nuniform_split_targets_the_lowest_ids_still_active(self):
        rng = np.random.default_rng(3)
        first = sorted(rng.choice(64, size=40, replace=False).tolist())
        adversary = NUniformSplitAdversary(target_uninformed=12)
        plan = adversary.plan_phase(context_for(PhaseKind.INFORM, first))
        victims = frozenset(first[:12])
        assert adversary.victims == victims
        assert plan.targeting.mode is JamMode.ONLY and plan.targeting.nodes == victims
        later = [node for node in first if rng.random() < 0.5]
        plan = adversary.plan_phase(context_for(PhaseKind.INFORM, later))
        remaining = victims & frozenset(later)
        assert remaining  # the seed leaves some victims active
        assert plan.targeting.nodes == remaining
        gone = [node for node in range(64) if node not in victims]
        assert not adversary.plan_phase(context_for(PhaseKind.INFORM, gone)).attacks_anything

    @pytest.mark.parametrize("kind", [PhaseKind.INFORM, PhaseKind.REQUEST])
    def test_disk_plan_idles_exactly_when_no_victim_is_active(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(1, 6))
            victims = frozenset(rng.choice(64, size=size, replace=False).tolist())
            if rng.random() < 0.3:
                victims |= {ALICE_ID}
            cohort = rng.choice(64, size=int(rng.integers(0, 30)), replace=False).tolist()
            plan = plan_disk_jam(context_for(kind, cohort), victims, jam_request_phases=True)
            active = victims & frozenset(cohort)
            if kind is PhaseKind.REQUEST:
                active |= victims & {ALICE_ID}
            assert plan.attacks_anything == bool(active)
            if active:
                assert plan.targeting.nodes == victims

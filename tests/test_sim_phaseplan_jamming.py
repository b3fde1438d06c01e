"""Unit tests for phase plans, jam plans, and jam-slot materialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import (
    JamPlan,
    JamTargeting,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    clip_probability,
)
from repro.simulation.jamming import materialize_jam_slots, materialize_spoof_slots


class TestClipProbability:
    @pytest.mark.parametrize("raw,expected", [(-0.5, 0.0), (0.0, 0.0), (0.4, 0.4), (1.0, 1.0), (7.3, 1.0)])
    def test_clipping(self, raw, expected):
        assert clip_probability(raw) == expected


class TestPhasePlan:
    def test_probabilities_clipped_on_construction(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=1,
            num_slots=4,
            alice_send_prob=3.0,
            uninformed_listen_prob=-1.0,
        )
        assert plan.alice_send_prob == 1.0
        assert plan.uninformed_listen_prob == 0.0

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            PhasePlan(name="x", kind=PhaseKind.INFORM, round_index=1, num_slots=-1)

    def test_carries_payload(self):
        inform = PhasePlan(name="i", kind=PhaseKind.INFORM, round_index=1, num_slots=4, alice_send_prob=0.5)
        request = PhasePlan(name="r", kind=PhaseKind.REQUEST, round_index=1, num_slots=4, nack_send_prob=0.5)
        assert inform.carries_payload
        assert not request.carries_payload


class TestPhaseRoles:
    def test_of_constructor_freezes_sets(self):
        roles = PhaseRoles.of([1, 2, 3], relays=[4], alice_active=False)
        assert roles.active_uninformed_ids.tolist() == [1, 2, 3]
        assert roles.relay_ids.tolist() == [4]
        assert not roles.alice_active


class TestJamPlan:
    def test_idle_plan(self):
        plan = JamPlan.idle()
        assert not plan.attacks_anything

    def test_attacks_anything_variants(self):
        assert JamPlan(num_jam_slots=1).attacks_anything
        assert JamPlan(jam_rate=0.1).attacks_anything
        assert JamPlan(slot_indices=(1, 2)).attacks_anything
        assert JamPlan(spoof_nack_slots=2).attacks_anything
        assert not JamPlan().attacks_anything


class TestMaterializeJamSlots:
    def test_explicit_indices_clipped_to_phase(self):
        plan = JamPlan(slot_indices=(0, 3, 99))
        slots = materialize_jam_slots(plan, 10, np.random.default_rng(0))
        assert slots.tolist() == [0, 3]

    def test_count_selection_has_exact_size(self):
        plan = JamPlan(num_jam_slots=5)
        slots = materialize_jam_slots(plan, 20, np.random.default_rng(0))
        assert len(slots) == 5
        assert len(set(slots.tolist())) == 5

    def test_count_capped_at_phase_length(self):
        plan = JamPlan(num_jam_slots=50)
        slots = materialize_jam_slots(plan, 10, np.random.default_rng(0))
        assert len(slots) == 10

    def test_rate_selection_statistics(self):
        plan = JamPlan(jam_rate=0.3)
        slots = materialize_jam_slots(plan, 10_000, np.random.default_rng(1))
        assert 0.25 < len(slots) / 10_000 < 0.35

    def test_reactive_requires_activity_mask(self):
        plan = JamPlan(num_jam_slots=2, reactive=True)
        with pytest.raises(ValueError):
            materialize_jam_slots(plan, 10, np.random.default_rng(0))

    def test_reactive_jams_only_active_slots(self):
        plan = JamPlan(num_jam_slots=3, reactive=True)
        active = np.array([1, 3, 4, 6])
        slots = materialize_jam_slots(plan, 7, np.random.default_rng(0), active_slots=active)
        assert slots.tolist() == [1, 3, 4]

    def test_reactive_rate_subsets_active_slots(self):
        plan = JamPlan(jam_rate=1.0, reactive=True)
        active = np.array([0, 2])
        slots = materialize_jam_slots(plan, 3, np.random.default_rng(0), active_slots=active)
        assert slots.tolist() == [0, 2]

    def test_zero_slots_phase(self):
        assert materialize_jam_slots(JamPlan(num_jam_slots=3), 0, np.random.default_rng(0)).size == 0

    def test_empty_plan(self):
        assert materialize_jam_slots(JamPlan(), 16, np.random.default_rng(0)).size == 0


class TestMaterializeSpoofSlots:
    def test_excludes_given_slots(self):
        slots = materialize_spoof_slots(5, 10, np.random.default_rng(0), exclude=range(5))
        assert all(slot >= 5 for slot in slots.tolist())
        assert len(slots) == 5

    def test_count_capped_by_available(self):
        slots = materialize_spoof_slots(10, 4, np.random.default_rng(0), exclude=[0])
        assert len(slots) == 3

    def test_zero_count(self):
        assert materialize_spoof_slots(0, 10, np.random.default_rng(0)).size == 0

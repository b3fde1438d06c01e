"""Integration tests: the vectorised engine is statistically equivalent to the
slot-faithful engine.

The PhaseEngine resolves every phase from sampled send events with an exact
informed stop (its one documented approximation is the reactive-plan caveat
in its module docstring); these tests check that on identical scenarios the
two engines agree on the protocol-visible outcomes (delivery, termination)
and that their cost figures come from matching distributions — both on the
seed single-hop model and over spatial multi-hop topologies.

All machinery lives in the reusable :mod:`tests.equivalence` harness (KS and
moment checks over seeded trials).
"""

from __future__ import annotations

import tracemalloc

import pytest

from equivalence import (
    assert_means_close,
    assert_same_distribution,
    column,
    mean_by_engine,
    paired_phase_records,
)
from repro import run_broadcast
from repro.adversary import (
    BurstyJammer,
    MobileJammer,
    PhaseBlockingAdversary,
    ReactiveDiskJammer,
    SpatialJammer,
    WaypointPatrol,
)
from repro.simulation import (
    JamPlan,
    JamTargeting,
    Network,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
    TopologySpec,
)

GILBERT = {"topology": TopologySpec.gilbert(radius=0.3)}


def all_listening_roles(network) -> PhaseRoles:
    return PhaseRoles.of(range(network.n))


def split_roles(network) -> PhaseRoles:
    half = network.n // 2
    return PhaseRoles.of(range(half, network.n), relays=range(half))


def first_half_jam() -> JamPlan:
    return JamPlan(slot_indices=tuple(range(200)), targeting=JamTargeting.everyone())


def bursty_jam() -> JamPlan:
    # BurstyJammer's shape: bursts of four jammed slots in every eight.
    return JamPlan(
        slot_indices=tuple(t for t in range(400) if t % 8 < 4),
        targeting=JamTargeting.everyone(),
    )


class TestPhaseLevelEquivalence:
    def test_inform_phase_statistics_match(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.2,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(plan, all_listening_roles, trials=60)
        for key, rel in (("informed", 0.02), ("alice_cost", 0.05), ("node_total", 0.1)):
            assert_means_close(
                column(records["slot"], key), column(records["fast"], key), rel=rel, label=key
            )
        assert_same_distribution(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            label="listening cost (single-hop inform phase)",
        )

    @pytest.mark.parametrize("jam", [first_half_jam, bursty_jam], ids=["first_half", "bursty"])
    def test_inform_phase_costs_match_under_jamming(self, jam):
        # The informed stop is exact: a listener stops at the slot it heard
        # the message in, however the jams are spread over the phase.
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=400,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(plan, all_listening_roles, jam, n=40, trials=60)
        for key in ("informed", "node_total", "alice_cost", "delivery_slots", "busy_slots"):
            assert_same_distribution(
                column(records["slot"], key), column(records["fast"], key), label=key
            )
        assert_means_close(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            rel=0.1,
            label="node_total",
        )

    def test_inform_phase_informed_distribution_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=6,
            num_slots=200,
            alice_send_prob=0.15,
            uninformed_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles, n=40, trials=30)
        assert_same_distribution(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            label="informed counts (single-hop inform phase)",
        )

    def test_jammed_inform_phase_statistics_match(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.3,
        )
        jam = lambda: JamPlan(num_jam_slots=150, targeting=JamTargeting.everyone())
        records = paired_phase_records(plan, all_listening_roles, jam)
        stats = mean_by_engine(records)
        assert stats["fast"]["adversary"] == stats["slot"]["adversary"] == 150
        assert stats["fast"]["informed"] == pytest.approx(stats["slot"]["informed"], rel=0.3, abs=4)

    def test_request_phase_noise_statistics_match(self):
        plan = PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=5,
            num_slots=400,
            nack_send_prob=0.02,
            uninformed_listen_prob=0.2,
            alice_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles, trials=40)
        stats = mean_by_engine(records)
        assert stats["fast"]["alice_noisy"] == pytest.approx(stats["slot"]["alice_noisy"], rel=0.1)
        for key in ("node_noisy_total", "node_total"):
            assert_means_close(
                column(records["slot"], key), column(records["fast"], key), rel=0.02, label=key
            )
            assert_same_distribution(
                column(records["slot"], key), column(records["fast"], key), label=key
            )


class TestMultiHopPhaseEquivalence:
    """The multi-hop fast path resolves audibility per listener; its phase
    statistics must match the (automatically topology-exact) slot engine."""

    def test_multihop_inform_phase_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.2,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(
            plan, all_listening_roles, trials=40, config_kwargs=GILBERT
        )
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.2,
            abs_tol=2.0,
            label="multihop informed",
        )
        assert_means_close(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            rel=0.03,
            label="multihop node_total",
        )
        assert_same_distribution(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            label="informed counts (multihop inform phase)",
        )

    def test_multihop_propagation_phase_matches(self):
        plan = PhasePlan(
            name="propagation:1",
            kind=PhaseKind.PROPAGATION,
            round_index=5,
            num_slots=300,
            relay_send_prob=0.1,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(plan, split_roles, trials=40, config_kwargs=GILBERT)
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.15,
            abs_tol=2.0,
            label="multihop propagation informed",
        )
        assert_means_close(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            rel=0.03,
            label="multihop propagation node_total",
        )

    def test_multihop_spatially_jammed_phase_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.3,
        )
        # A fixed disk of victims, resolved per-trial by node ids 0..11 as a
        # stand-in for a spatial region (identical for both engines).
        jam = lambda: JamPlan(num_jam_slots=150, targeting=JamTargeting.only(range(12)))
        records = paired_phase_records(plan, all_listening_roles, jam, trials=40, config_kwargs=GILBERT)
        stats = mean_by_engine(records)
        assert stats["fast"]["adversary"] == stats["slot"]["adversary"] == 150
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.25,
            abs_tol=3.0,
            label="spatially jammed informed",
        )

    def test_multihop_request_phase_noise_matches(self):
        plan = PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=5,
            num_slots=400,
            nack_send_prob=0.02,
            uninformed_listen_prob=0.2,
            alice_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles, trials=40, config_kwargs=GILBERT)
        assert_means_close(
            column(records["slot"], "alice_noisy"),
            column(records["fast"], "alice_noisy"),
            rel=0.3,
            abs_tol=5.0,
            label="multihop alice_noisy",
        )


class TestNoPhaseLengthArrays:
    """The fast engine's work follows a phase's events, not its length: a
    phase of 10⁹ slots with a handful of sends, jammed whole or not, stays
    within a few MiB on both topologies.  Any array of the phase's length
    (8 GB as int64) fails this at once."""

    SLOTS = 10**9

    @pytest.mark.parametrize("topology", [None, TopologySpec.gilbert(radius=0.3)], ids=["single_hop", "gilbert"])
    def test_billion_slot_phases_stay_small(self, topology):
        extra = {} if topology is None else {"topology": topology}
        network = Network(SimulationConfig(n=64, seed=3, budget_constant=1e12, **extra))
        engine = PhaseEngine(network)
        s = self.SLOTS
        roles = PhaseRoles.of(range(32), relays=range(32, 64), decoy_senders=range(32))
        plans = [
            PhasePlan(name="inform", kind=PhaseKind.INFORM, round_index=30, num_slots=s,
                      alice_send_prob=8e-9, uninformed_listen_prob=0.5, decoy_send_prob=1e-10),
            PhasePlan(name="propagation:1", kind=PhaseKind.PROPAGATION, round_index=30,
                      num_slots=s, relay_send_prob=1e-10, uninformed_listen_prob=0.5),
            PhasePlan(name="request", kind=PhaseKind.REQUEST, round_index=30, num_slots=s,
                      nack_send_prob=1e-10, uninformed_listen_prob=1e-8, alice_listen_prob=1e-8),
        ]
        informed = 0
        for plan in plans:
            for jam in (JamPlan.idle(), JamPlan(num_jam_slots=s, targeting=JamTargeting.only(range(8)))):
                tracemalloc.start()
                try:
                    result = engine.run_phase(plan, roles, jam)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4 * 2**20, f"{plan.name}: traced peak {peak / 2**20:.1f} MiB"
                assert result.jammed_slots == jam.num_jam_slots
                assert result.busy_slots >= result.jammed_slots
                informed += result.newly_informed.size
        # Not vacuous: the handful of sends did inform listeners.
        assert informed > 0
        assert network.node_costs().sum() > 0


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: "none",
        lambda: PhaseBlockingAdversary(max_total_spend=4_000),
    ])
    def test_full_runs_agree_on_protocol_outcomes(self, adversary_factory):
        fast = run_broadcast(n=64, seed=21, adversary=adversary_factory(), engine="fast")
        slot = run_broadcast(n=64, seed=21, adversary=adversary_factory(), engine="slot")
        assert fast.delivery_fraction == slot.delivery_fraction == 1.0
        assert fast.delivery.alice_terminated and slot.delivery.alice_terminated
        assert fast.delivery.rounds_executed == pytest.approx(slot.delivery.rounds_executed, abs=1)

    def test_full_run_costs_within_tolerance(self):
        fast = run_broadcast(n=64, seed=22, adversary=PhaseBlockingAdversary(max_total_spend=4_000), engine="fast")
        slot = run_broadcast(n=64, seed=22, adversary=PhaseBlockingAdversary(max_total_spend=4_000), engine="slot")
        assert fast.adversary_spend == pytest.approx(slot.adversary_spend, rel=0.15)
        assert fast.mean_node_cost == pytest.approx(slot.mean_node_cost, rel=0.05)
        assert fast.alice_cost == pytest.approx(slot.alice_cost, rel=0.15)

    def test_bursty_full_runs_agree_on_node_cost(self):
        # A burst schedule jams half of every phase in short runs; each
        # device's cost hinges on where its informed stop falls.
        costs = {
            engine: [
                run_broadcast(
                    n=40,
                    seed=seed,
                    engine=engine,
                    adversary=BurstyJammer(burst_length=4, period=8, max_total_spend=1500),
                ).mean_node_cost
                for seed in range(20)
            ]
            for engine in ("slot", "fast")
        }
        assert_means_close(costs["slot"], costs["fast"], rel=0.03, label="bursty mean node cost")


class TestMultiHopEndToEndEquivalence:
    """The ISSUE acceptance scenario: exp_multihop-style full runs agree."""

    @staticmethod
    def _run_many(engine, trials=6, adversary_factory=lambda: "none"):
        outs = []
        for trial in range(trials):
            outs.append(
                run_broadcast(
                    n=48,
                    seed=300 + trial,
                    variant="multihop",
                    engine=engine,
                    topology="gilbert",
                    topology_kwargs={"radius": 0.3},
                    adversary=adversary_factory(),
                )
            )
        return outs

    def test_multihop_full_runs_agree(self):
        fast = self._run_many("fast")
        slot = self._run_many("slot")
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.05,
            abs_tol=0.05,
            label="multihop delivery fraction",
        )
        assert_means_close(
            [o.delivery.rounds_executed for o in slot],
            [o.delivery.rounds_executed for o in fast],
            rel=0.2,
            abs_tol=1.0,
            label="multihop rounds executed",
        )
        assert_means_close(
            [o.alice_cost for o in slot],
            [o.alice_cost for o in fast],
            rel=0.2,
            label="multihop alice cost",
        )
        # Per-run node cost is dominated by how many rounds the last
        # stragglers take, which is high-variance; the mean over seeds still
        # has to land in the same ballpark.
        assert_means_close(
            [o.mean_node_cost for o in slot],
            [o.mean_node_cost for o in fast],
            rel=0.6,
            label="multihop mean node cost",
        )

    def test_multihop_spatial_jam_full_runs_agree(self):
        factory = lambda: SpatialJammer(center=(0.25, 0.25), radius=0.2, max_total_spend=3_000)
        fast = self._run_many("fast", trials=4, adversary_factory=factory)
        slot = self._run_many("slot", trials=4, adversary_factory=factory)
        assert_means_close(
            [o.adversary_spend for o in slot],
            [o.adversary_spend for o in fast],
            rel=0.15,
            label="spatial-jam adversary spend",
        )
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.1,
            abs_tol=0.1,
            label="spatial-jam delivery fraction",
        )


class TestMobileJammerEngineEquivalence:
    """The E12 acceptance scenario: full multi-hop runs under a *mobile*
    jammer (victims re-resolved every phase) must agree across engines on
    protocol outcomes, with cost figures from matching distributions."""

    @staticmethod
    def _run_many(engine, adversary_factory, trials=8):
        outs = []
        for trial in range(trials):
            outs.append(
                run_broadcast(
                    n=48,
                    seed=700 + trial,
                    variant="multihop",
                    engine=engine,
                    topology="gilbert",
                    topology_kwargs={"radius": 0.3},
                    adversary=adversary_factory(),
                )
            )
        return outs

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MobileJammer(
                WaypointPatrol([(0.25, 0.25), (0.75, 0.75)], speed=0.08),
                radius=0.2,
                max_total_spend=2_000,
            ),
            lambda: ReactiveDiskJammer(radius=0.25, max_total_spend=2_000),
        ],
        ids=["patrol", "reactive_disk"],
    )
    def test_mobile_jammer_full_runs_agree(self, factory):
        fast = self._run_many("fast", factory)
        slot = self._run_many("slot", factory)
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.1,
            abs_tol=0.1,
            label="mobile-jam delivery fraction",
        )
        assert_means_close(
            [o.adversary_spend for o in slot],
            [o.adversary_spend for o in fast],
            rel=0.25,
            abs_tol=50.0,
            label="mobile-jam adversary spend",
        )
        assert_means_close(
            [o.mean_node_cost for o in slot],
            [o.mean_node_cost for o in fast],
            rel=0.6,
            label="mobile-jam mean node cost",
        )
        assert_same_distribution(
            [o.delivery.informed for o in slot],
            [o.delivery.informed for o in fast],
            label="mobile-jam informed counts",
        )

"""The one radio-graph representation: CSR neighbour lists.

Every spatial topology stores its realised graph as a grid-built
:class:`~repro.simulation.topology.NeighborCSR`.  These tests pin it to a
few-line, test-local all-pairs distance oracle:

* the CSR neighbourhoods (and the dense ``adjacency`` debug view) equal the
  brute-force edge predicate for every topology class;
* the graph statistics, ``can_hear``, ``any_neighbor_in`` and disk queries
  agree with the same oracle;
* the legacy ``TopologySpec.sparse`` field accepts only ``None``/``True``;
* the event-driven engine path agrees with the slot engine on edge-case
  multi-hop phases;
* the engine's Bernoulli event sampler is exact.

All trials are seeded, so every assertion is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulation.topology as topology_module
from equivalence import (
    assert_means_close,
    assert_same_distribution,
    column,
    paired_phase_records,
)
from repro.core.api import run_broadcast
from repro.simulation import (
    ALICE_ID,
    GilbertGraph,
    JamPlan,
    JamTargeting,
    Network,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    RandomSource,
    ScaleFreeGilbert,
    SimulationConfig,
    SingleHop,
    TopologySpec,
    build_topology,
)
from repro.simulation.errors import ConfigurationError
from repro.simulation.fastengine import _sample_bernoulli_events
from repro.simulation.topology import _sample_positions


def reach_matrix(topo) -> np.ndarray:
    """Test-local all-pairs oracle: who hears whom, over Alice-last rows."""

    if topo.is_single_hop:
        return ~np.eye(topo.n + 1, dtype=bool)
    if isinstance(topo, GilbertGraph):
        link_radius = topo.radius
    else:
        link_radius = np.maximum(topo.radii[:, None], topo.radii[None, :])
    deltas = topo.positions[:, None, :] - topo.positions[None, :, :]
    reach = (deltas ** 2).sum(axis=-1) <= link_radius ** 2
    np.fill_diagonal(reach, False)
    return reach


def sample_topology(kind: str, n: int = 64, seed: int = 0, **kwargs):
    """A Gilbert or scale-free graph realised from seeded positions."""

    rng = np.random.default_rng(seed)
    pos = _sample_positions(n, rng, "center")
    if kind == "gilbert":
        return GilbertGraph(pos, kwargs.get("radius", 0.25))
    alpha = kwargs.get("alpha", 2.0)
    min_radius = kwargs.get("min_radius", 0.05)
    uniforms = rng.random(n + 1)
    radii = np.minimum(min_radius * uniforms ** (-1.0 / alpha), np.sqrt(2.0))
    return ScaleFreeGilbert(pos, radii, alpha, min_radius)


def oracle_components(reach: np.ndarray, n: int):
    """Node components of the oracle graph (Alice excluded), by BFS."""

    seen = np.zeros(n, dtype=bool)
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component, frontier = {start}, [start]
        while frontier:
            nxt = [int(v) for u in frontier for v in np.flatnonzero(reach[u, :n]) if not seen[v]]
            seen[nxt] = True
            component.update(nxt)
            frontier = nxt
        components.append(frozenset(component))
    return components


ALL_SPECS = [
    TopologySpec.single_hop(),
    TopologySpec.gilbert(radius=0.22),
    TopologySpec.scale_free(alpha=2.0),
]


class TestCsrMatchesReachMatrix:
    """`neighbor_csr()` expands to exactly the all-pairs reach matrix."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_csr_expands_to_reach_matrix(self, spec, seed):
        topo = build_topology(spec, 48, RandomSource(seed))
        assert np.array_equal(topo.neighbor_csr().to_dense(), reach_matrix(topo))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_per_listener_slices_match(self, spec):
        n = 40
        topo = build_topology(spec, n, RandomSource(3))
        for device in [ALICE_ID, 0, 5, n - 1]:
            ids = topo.neighbor_slice(device)
            assert list(ids) == sorted(topo.neighbors(device))
            row = topo.neighbor_csr().row(topo._index(device))
            assert list(row) == sorted(row)  # sorted within each row
            assert topo._index(device) not in row  # empty diagonal

    def test_csr_is_symmetric_and_cached(self):
        topo = sample_topology("gilbert", n=80, seed=5)
        csr = topo.neighbor_csr()
        assert csr is topo.neighbor_csr()  # memoised
        mat = csr.to_dense()
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()
        assert csr.nnz == int(mat.sum())


class TestGridEqualsBruteForce:
    """The grid cell index realises exactly the all-pairs edge set."""

    @pytest.mark.parametrize("radius", [0.03, 0.1, 0.25, 0.6, 1.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gilbert(self, radius, seed):
        topo = sample_topology("gilbert", n=150, seed=seed, radius=radius)
        assert topo.backend == "sparse"
        assert np.array_equal(topo.adjacency, reach_matrix(topo))

    @pytest.mark.parametrize("alpha,min_radius", [(2.5, 0.04), (1.2, 0.05), (0.7, 0.02)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scale_free(self, alpha, min_radius, seed):
        topo = sample_topology(
            "scale_free", n=150, seed=seed, alpha=alpha, min_radius=min_radius
        )
        assert np.array_equal(topo.adjacency, reach_matrix(topo))

    def test_statistics_match_oracle(self):
        topo = sample_topology("gilbert", n=200, seed=11, radius=0.08)
        n, reach = topo.n, reach_matrix(topo)
        assert np.array_equal(topo.degrees(), reach[:n, :n].sum(axis=1))
        components = oracle_components(reach, n)
        assert sorted(map(sorted, topo.connected_components())) == sorted(
            map(sorted, components)
        )
        assert topo.largest_component_fraction() == max(map(len, components)) / n
        alice_component = set().union(
            *(c for c in components if any(reach[n, list(c)]))
        )
        assert topo.reachable_from_alice() == alice_component

    def test_reach_matrix_and_can_hear_on_sparse_backend(self):
        topo = sample_topology("gilbert", n=60, seed=2, radius=0.2)
        reach = reach_matrix(topo)
        for u in [ALICE_ID, 0, 7, 31]:
            for v in [5, 7, ALICE_ID]:
                assert topo.can_hear(u, v) == reach[topo._index(u), topo._index(v)]
            assert topo.can_hear(u, -3)  # a synthetic Byzantine sender

    def test_any_neighbor_in_matches_set_intersection(self):
        topo = sample_topology("scale_free", n=90, seed=4)
        reach = reach_matrix(topo)
        members = set(range(0, 90, 7))
        devices = list(range(0, 90, 3)) + [ALICE_ID]
        expected = [bool(reach[topo._index(d), sorted(members)].any()) for d in devices]
        assert topo.any_neighbor_in(devices, members).tolist() == expected
        # SingleHop: every other member is a neighbour.
        clique = SingleHop(10)
        got = clique.any_neighbor_in([0, 1, 9], {1})
        assert got.tolist() == [True, False, True]


class TestAnyNeighborIn:
    """List and ndarray inputs take different code paths but must agree."""

    N = 40

    @pytest.fixture
    def topo(self):
        return sample_topology("gilbert", n=self.N, seed=8, radius=0.25)

    @pytest.mark.parametrize(
        "devices,members",
        [
            ([0, 5, 17, 39], [3, 9, 21]),
            ([ALICE_ID, 1, 2], [0, 4]),
            ([3, 8, 30], [ALICE_ID]),
            ([ALICE_ID], [ALICE_ID, 7]),
        ],
        ids=["nodes", "alice-device", "alice-member", "alice-both"],
    )
    def test_list_and_array_inputs_agree(self, topo, devices, members):
        reach = reach_matrix(topo)
        member_rows = [topo._index(m) for m in members]
        expected = [bool(reach[topo._index(d), member_rows].any()) for d in devices]
        for device_ids in (devices, np.array(devices)):
            for member_ids in (members, np.array(members)):
                got = topo.any_neighbor_in(device_ids, member_ids)
                assert got.tolist() == expected

    @pytest.mark.parametrize("bad", [N, N + 5, -2])
    def test_unknown_ids_raise_on_both_paths(self, topo, bad):
        for device_ids in ([0, bad], np.array([0, bad])):
            with pytest.raises(ConfigurationError):
                topo.any_neighbor_in(device_ids, [1])
        for member_ids in ([1, bad], np.array([1, bad])):
            with pytest.raises(ConfigurationError):
                topo.any_neighbor_in([0], member_ids)


class TestOneRepresentation:
    """Spatial graphs are CSR only; the legacy spec field cannot ask for dense."""

    @pytest.mark.parametrize("kind", ["gilbert", "scale_free"])
    def test_spatial_topologies_store_csr_only(self, kind):
        topo = sample_topology(kind, n=300, seed=1)
        assert topo.backend == "sparse"
        assert topo.memory_bytes() == topo.neighbor_csr().memory_bytes()
        assert topo.memory_bytes() < (topo.n + 1) ** 2  # below a dense bool matrix

    @pytest.mark.parametrize("kind", ["gilbert", "scale_free"])
    def test_spec_sparse_true_still_builds(self, kind):
        legacy = Network(
            SimulationConfig(n=40, seed=9, topology=TopologySpec(kind=kind, sparse=True))
        )
        default = Network(SimulationConfig(n=40, seed=9, topology=TopologySpec(kind=kind)))
        assert legacy.topology.backend == "sparse"
        assert legacy.topology_memory_bytes() == legacy.topology.memory_bytes()
        assert np.array_equal(legacy.topology.adjacency, default.topology.adjacency)

    @pytest.mark.parametrize("kind", ["gilbert", "scale_free"])
    def test_spec_sparse_false_raises(self, kind):
        with pytest.raises(ConfigurationError, match="dense adjacency backend was removed"):
            TopologySpec(kind=kind, sparse=False)

    def test_spec_rejects_non_bool_sparse(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="gilbert", sparse="yes")

    def test_single_hop_stores_nothing(self):
        topo = SingleHop(50)
        assert topo.backend == "implicit"
        assert topo.memory_bytes() == 0

    def test_multihop_run_is_seed_deterministic(self):
        a, b = (
            run_broadcast(
                n=64, seed=42, variant="multihop", topology="gilbert",
                topology_kwargs={"radius": 0.3},
            )
            for _ in range(2)
        )
        assert a.delivery.informed == b.delivery.informed
        assert a.delivery.slots_elapsed == b.delivery.slots_elapsed
        assert a.mean_node_cost == b.mean_node_cost


class TestEnginePathEquivalence:
    """The event-driven CSR phase path matches the topology-exact slot engine
    on multi-hop phases the protocol schedules never build but the engine API
    allows."""

    N = 48
    CONFIG = {"topology": TopologySpec.gilbert(radius=0.3)}

    def _check(self, plan, roles_builder, jam_builder, keys):
        records = paired_phase_records(
            plan, roles_builder, jam_builder, n=self.N, trials=40, config_kwargs=self.CONFIG
        )
        for key in keys:
            slot, fast = column(records["slot"], key), column(records["fast"], key)
            assert_same_distribution(slot, fast, alpha=0.01, label=key)
            assert_means_close(slot, fast, rel=0.2, abs_tol=2.0, label=key)

    def test_request_phase_under_targeted_jamming(self):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=5, num_slots=192,
            alice_listen_prob=0.3, uninformed_listen_prob=0.3, nack_send_prob=0.04,
        )
        self._check(
            plan,
            lambda net: PhaseRoles.of(range(net.n)),
            lambda: JamPlan(jam_rate=0.3, targeting=JamTargeting.only(range(0, self.N, 2))),
            ["alice_noisy", "node_noisy_total", "node_total"],
        )

    def test_request_phase_with_payload_senders(self):
        # Clean deliveries are not noise, and an informed listener stops
        # nacking after its delivery slot.
        plan = PhasePlan(
            name="request+payload", kind=PhaseKind.REQUEST, round_index=5,
            num_slots=256, alice_listen_prob=0.3, uninformed_listen_prob=0.3,
            nack_send_prob=0.03, relay_send_prob=0.02,
        )
        half = self.N // 2
        self._check(
            plan,
            lambda net: PhaseRoles.of(range(half, net.n), relays=range(half)),
            JamPlan.idle,
            ["informed", "node_noisy_total", "node_total", "alice_noisy", "busy_slots"],
        )

    def test_inform_phase_with_spoofing_and_decoys(self):
        # Decoy senders that become informed mid-phase fall silent.
        plan = PhasePlan(
            name="inform", kind=PhaseKind.INFORM, round_index=5, num_slots=192,
            alice_send_prob=0.08, uninformed_listen_prob=0.25, decoy_send_prob=0.02,
        )
        self._check(
            plan,
            lambda net: PhaseRoles.of(range(net.n), decoy_senders=range(net.n)),
            lambda: JamPlan(spoof_payload_slots=20, spoof_nack_slots=10),
            ["informed", "node_total", "busy_slots"],
        )

    def test_decoys_without_active_listeners(self):
        # Decoy senders outside the active uninformed set: no listener has a
        # delivery cutoff, so every decoy stays live for the whole phase.
        plan = PhasePlan(
            name="inform", kind=PhaseKind.INFORM, round_index=5, num_slots=128,
            alice_send_prob=0.08, uninformed_listen_prob=0.25, decoy_send_prob=0.02,
        )
        self._check(
            plan,
            lambda net: PhaseRoles.of([], decoy_senders=range(net.n)),
            JamPlan.idle,
            ["informed", "node_total", "busy_slots"],
        )


class TestBernoulliEventSampler:
    def test_matches_bernoulli_grid_moments(self):
        rng = np.random.default_rng(0)
        num, s, p = 40, 5000, 0.001
        counts = []
        for _ in range(30):
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.size == slots.size
            assert ((0 <= idx) & (idx < num)).all()
            assert ((0 <= slots) & (slots < s)).all()
            # no duplicate (device, slot) cells
            assert np.unique(idx * s + slots).size == idx.size
            counts.append(idx.size)
        expected = num * s * p
        assert abs(np.mean(counts) - expected) < 5 * np.sqrt(expected / 30)

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(1)
        for num, s, p in [(0, 10, 0.5), (10, 0, 0.5), (10, 10, 0.0)]:
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.size == 0 and slots.size == 0
        idx, slots = _sample_bernoulli_events(rng, 3, 4, 1.0)
        assert idx.size == 12  # p = 1 fills the grid


class TestDiskQueryGrid:
    """Grid-accelerated nodes_in_disk selects exactly the all-points scan's rows.

    Mobile jammers query a disk every phase, so above
    ``_DISK_GRID_THRESHOLD`` devices the query goes through a cached point
    grid; the distance predicate is the same float arithmetic, so both paths
    must agree with the oracle bit for bit — including disks that are empty,
    huge, or (partly) outside the unit square.
    """

    PROBES = [
        ((0.3, 0.4), 0.2),
        ((0.95, 0.95), 0.1),
        ((1.5, 1.5), 0.2),      # entirely outside the square
        ((0.5, 0.5), 0.0),      # degenerate disk
        ((0.5, 0.5), 2.0),      # covers everything
        ((-0.2, 0.5), 0.25),    # straddles the boundary
        ((0.5, 0.5), 0.03),     # smaller than a grid cell
    ]

    @staticmethod
    def oracle_rows(topo, center, radius):
        deltas = topo.positions - np.asarray(center, dtype=float)[None, :]
        return np.flatnonzero((deltas ** 2).sum(axis=1) <= radius ** 2)

    @pytest.mark.parametrize("kind", ["gilbert", "scale_free"])
    def test_grid_path_equals_scan_path(self, kind):
        topo = sample_topology(kind, n=300, seed=6)
        for center, radius in self.PROBES:
            expected = self.oracle_rows(topo, center, radius)
            scan = np.sort(topo._disk_rows_scan(center, radius))
            grid = np.asarray(topo._disk_rows_grid(center, radius))
            assert np.array_equal(scan, expected), (kind, center, radius)
            assert np.array_equal(grid, expected), (kind, center, radius)

    def test_disk_queries_match_oracle(self):
        topo = sample_topology("gilbert", n=150, seed=1, radius=0.1)
        for center, radius in self.PROBES:
            rows = self.oracle_rows(topo, center, radius)
            expected = frozenset(topo._device_id(int(r)) for r in rows)
            assert topo.nodes_in_disk(center, radius) == expected

    def test_dispatch_by_device_count(self, monkeypatch):
        topo = sample_topology("gilbert", n=64, seed=3, radius=0.2)
        baseline = topo.nodes_in_disk((0.4, 0.4), 0.3)
        assert topo._disk_grid is None  # small n: the scan path ran
        monkeypatch.setattr(topology_module, "_DISK_GRID_THRESHOLD", 16)
        assert topo.nodes_in_disk((0.4, 0.4), 0.3) == baseline
        assert topo._disk_grid is not None  # the grid path ran and cached

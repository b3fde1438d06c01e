"""Property tests for spatial topology generation.

Checks the structural invariants the engines rely on (determinism under the
run's seed, adjacency symmetry, no self-loops) and the two statistical
regimes the experiments exploit: the Gilbert connectivity threshold
``r_c = sqrt(ln n / (π n))`` and the heavy degree tail of the scale-free
variant.  All trials are seeded, so every assertion is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import (
    ALICE_ID,
    GilbertGraph,
    Network,
    RandomSource,
    ScaleFreeGilbert,
    SimulationConfig,
    SingleHop,
    TopologySpec,
    build_topology,
    gilbert_connectivity_radius,
)
from repro.core.broadcast import MultiHopBroadcast
from repro.simulation.errors import ConfigurationError
from repro.simulation.phaseplan import PhaseKind


def make_gilbert(n=64, radius=0.3, seed=0):
    return build_topology(TopologySpec.gilbert(radius=radius), n, RandomSource(seed))


def make_scale_free(n=64, alpha=2.0, seed=0):
    return build_topology(TopologySpec.scale_free(alpha=alpha), n, RandomSource(seed))


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="torus")

    @pytest.mark.parametrize("kwargs", [
        {"kind": "gilbert", "radius": 0.0},
        {"kind": "gilbert", "radius": -1.0},
        {"kind": "scale_free", "alpha": 0.0},
        {"kind": "scale_free", "min_radius": -0.5},
        {"kind": "gilbert", "alice_placement": "corner"},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TopologySpec(**kwargs)

    def test_config_rejects_non_spec_topology(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n=16, topology="gilbert")


class TestSeedDeterminism:
    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_same_seed_same_graph(self, maker):
        a, b = maker(seed=42), maker(seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.adjacency, b.adjacency)

    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_different_seed_different_graph(self, maker):
        a, b = maker(seed=1), maker(seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_network_realises_spec_deterministically(self):
        config = SimulationConfig(n=48, seed=7, topology=TopologySpec.gilbert(radius=0.25))
        net_a, net_b = Network(config), Network(config)
        assert np.array_equal(net_a.topology.adjacency, net_b.topology.adjacency)

    def test_topology_build_does_not_perturb_engine_streams(self):
        plain = Network(SimulationConfig(n=32, seed=5))
        spatial = Network(SimulationConfig(n=32, seed=5, topology=TopologySpec.gilbert(radius=0.3)))
        draws_plain = plain.random_source.stream("engine:alice").random(8)
        draws_spatial = spatial.random_source.stream("engine:alice").random(8)
        assert np.array_equal(draws_plain, draws_spatial)


class TestAdjacencyInvariants:
    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_symmetric_no_self_loops(self, maker):
        topo = maker(seed=3)
        adjacency = topo.adjacency
        assert np.array_equal(adjacency, adjacency.T)
        assert not adjacency.diagonal().any()

    def test_can_hear_matches_adjacency_and_is_symmetric(self, ):
        topo = make_gilbert(n=32, seed=9)
        devices = [ALICE_ID] + list(range(32))
        for u in devices[:8]:
            for v in devices[:8]:
                assert topo.can_hear(u, v) == topo.can_hear(v, u)
                if u == v:
                    assert not topo.can_hear(u, v)

    def test_byzantine_senders_audible_everywhere(self):
        topo = make_gilbert(n=16, radius=0.01, seed=0)
        assert topo.can_hear(0, -2)
        assert topo.can_hear(ALICE_ID, -5)
        # Audible even on a radius so small no real edge exists.
        assert not topo.adjacency.any()
        assert not topo.can_hear(0, 1) and not topo.can_hear(0, 0)

    def test_reach_matrix_agrees_with_can_hear(self):
        """The materialised adjacency (the reach matrix over device rows)."""

        topo = make_gilbert(n=24, seed=11)
        matrix = topo.adjacency
        for u in [ALICE_ID, 0, 5, 7]:
            for v in [3, 5, ALICE_ID]:
                assert matrix[topo._index(u), topo._index(v)] == topo.can_hear(u, v)

    def test_edges_match_radius_geometry(self):
        topo = make_gilbert(n=40, radius=0.2, seed=13)
        positions = topo.positions
        adjacency = topo.adjacency
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=-1))
        expected = distances <= 0.2
        np.fill_diagonal(expected, False)
        assert np.array_equal(adjacency, expected)

    def test_single_hop_hears_everyone(self):
        topo = SingleHop(8)
        assert topo.is_single_hop
        assert topo.neighbors(0) == frozenset(range(1, 8)) | {ALICE_ID}
        assert topo.neighbors(ALICE_ID) == frozenset(range(8))
        assert topo.largest_component_fraction() == 1.0


class TestConnectivityThreshold:
    """Empirical connectivity agrees with the Gilbert threshold regime."""

    N = 400

    def _fractions(self, multiplier, seeds=range(5)):
        r = multiplier * gilbert_connectivity_radius(self.N)
        return [
            build_topology(
                TopologySpec.gilbert(radius=r), self.N, RandomSource(1000 + s)
            ).largest_component_fraction()
            for s in seeds
        ]

    def test_subcritical_radius_fragments(self):
        fractions = self._fractions(0.4)
        assert max(fractions) < 0.5

    def test_supercritical_radius_connects(self):
        fractions = self._fractions(2.0)
        assert min(fractions) > 0.95

    def test_fraction_increases_across_threshold(self):
        below = np.mean(self._fractions(0.6))
        above = np.mean(self._fractions(1.5))
        assert above > below + 0.3

    def test_reachable_from_alice_subset_of_component(self):
        topo = make_gilbert(n=100, radius=0.12, seed=4)
        reachable = topo.reachable_from_alice()
        assert reachable  # Alice at the centre of a near-critical graph
        components = topo.connected_components()
        # Every node reachable from Alice lies in a single node-component
        # (Alice's edges can merge node-components, so take the union of the
        # components her neighbours touch).
        neighbor_components = [c for c in components if c & topo.node_neighbors(ALICE_ID)]
        union = frozenset().union(*neighbor_components) if neighbor_components else frozenset()
        assert reachable == union


class TestScaleFreeDegreeTail:
    def test_degree_tail_heavier_than_gilbert(self):
        n = 300
        sf = build_topology(TopologySpec.scale_free(alpha=1.5), n, RandomSource(21))
        degrees = sf.degrees()
        median = np.median(degrees)
        # Hubs: some node's degree dwarfs the median; a homogeneous Gilbert
        # graph (Poisson degrees) never shows this spread.
        assert degrees.max() >= 6 * max(median, 1.0)
        gilbert = build_topology(
            TopologySpec.gilbert(radius=2.0 * gilbert_connectivity_radius(n)),
            n,
            RandomSource(21),
        )
        g_degrees = gilbert.degrees()
        g_ratio = g_degrees.max() / max(np.median(g_degrees), 1.0)
        sf_ratio = degrees.max() / max(median, 1.0)
        assert sf_ratio > 2.0 * g_ratio

    def test_radii_are_pareto_bounded_below(self):
        sf = make_scale_free(n=128, alpha=2.5, seed=8)
        assert isinstance(sf, ScaleFreeGilbert)
        assert (sf.radii >= sf.min_radius - 1e-12).all()
        assert (sf.radii <= np.sqrt(2.0) + 1e-12).all()


class TestSpatialQueries:
    def test_nodes_in_disk_matches_geometry(self):
        topo = make_gilbert(n=60, seed=17)
        center, radius = (0.5, 0.5), 0.3
        inside = topo.nodes_in_disk(center, radius)
        assert ALICE_ID in inside  # Alice sits at the centre by default
        positions = topo.positions
        for node in range(60):
            d2 = (positions[node, 0] - 0.5) ** 2 + (positions[node, 1] - 0.5) ** 2
            assert (node in inside) == (d2 <= radius ** 2)

    def test_single_hop_disk_is_everyone(self):
        topo = SingleHop(10)
        assert topo.nodes_in_disk((0.0, 0.0), 0.01) == frozenset(range(10)) | {ALICE_ID}

    def test_gilbert_default_radius_is_supercritical(self):
        topo = build_topology(TopologySpec.gilbert(), 200, RandomSource(2))
        assert isinstance(topo, GilbertGraph)
        assert topo.radius == pytest.approx(2.0 * gilbert_connectivity_radius(200))


# --------------------------------------------------------------------------- #
# Graph kernels against test-local oracles                                    #
# --------------------------------------------------------------------------- #


def _oracle_edges_to_csr(us, vs, num_rows):
    """The lexsort CSR build the key-sort builder replaced."""

    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows[order], minlength=num_rows)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return indptr, cols[order].astype(np.int32)


def _oracle_directed_edges_to_csr(us, vs, num_rows):
    """The ``np.unique`` CSR build the key-sort builder replaced."""

    m = np.int64(num_rows)
    keys = np.unique(np.concatenate([us * m + vs, vs * m + us]))
    counts = np.bincount(keys // m, minlength=num_rows)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return indptr, (keys % m).astype(np.int32)


def _random_undirected_edges(rng, num_rows, density):
    """Each unordered pair once, in random order and orientation, plus a hub."""

    us = rng.integers(0, num_rows, size=int(density * num_rows * num_rows))
    vs = rng.integers(0, num_rows, size=us.size)
    hub = np.arange(1, num_rows, dtype=np.int64)
    us = np.concatenate([us, np.zeros_like(hub)])
    vs = np.concatenate([vs, hub])
    keep = us != vs
    lo = np.minimum(us[keep], vs[keep])
    hi = np.maximum(us[keep], vs[keep])
    pairs = np.unique(lo * num_rows + hi)
    lo, hi = pairs // num_rows, pairs % num_rows
    flip = rng.random(pairs.size) < 0.5
    order = rng.permutation(pairs.size)
    return np.where(flip, hi, lo)[order], np.where(flip, lo, hi)[order]


def _random_directed_edges(rng, num_rows, density):
    """Directed edges with repeats, reversed twins and a hub reaching everyone."""

    us = rng.integers(0, num_rows, size=int(density * num_rows * num_rows))
    vs = rng.integers(0, num_rows, size=us.size)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    hub = np.full(num_rows - 1, num_rows - 1, dtype=np.int64)
    others = np.arange(num_rows - 1, dtype=np.int64)
    twins = slice(0, us.size // 3)
    us = np.concatenate([us, vs[twins], us[twins], hub, hub, others])
    vs = np.concatenate([vs, us[twins], vs[twins], others, others, hub])
    order = rng.permutation(us.size)
    return us[order], vs[order]


class TestCsrBuildersMatchOracle:
    """Key-sort CSR builders equal the lexsort / ``np.unique`` builds exactly."""

    @pytest.mark.parametrize("num_rows", [2, 3, 40, 257])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_undirected_builder(self, num_rows, density, seed):
        from repro.simulation.topology import _edges_to_csr

        us, vs = _random_undirected_edges(np.random.default_rng(seed), num_rows, density)
        csr = _edges_to_csr(us, vs, num_rows)
        indptr, indices = _oracle_edges_to_csr(us, vs, num_rows)
        assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int32
        np.testing.assert_array_equal(csr.indptr, indptr)
        np.testing.assert_array_equal(csr.indices, indices)

    @pytest.mark.parametrize("num_rows", [2, 3, 40, 257])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_directed_builder_dedupes(self, num_rows, density, seed):
        from repro.simulation.topology import _directed_edges_to_csr

        us, vs = _random_directed_edges(np.random.default_rng(seed), num_rows, density)
        csr = _directed_edges_to_csr(us, vs, num_rows)
        indptr, indices = _oracle_directed_edges_to_csr(us, vs, num_rows)
        assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int32
        np.testing.assert_array_equal(csr.indptr, indptr)
        np.testing.assert_array_equal(csr.indices, indices)

    def test_empty_edge_lists(self):
        from repro.simulation.topology import _directed_edges_to_csr, _edges_to_csr

        empty = np.empty(0, dtype=np.int64)
        for build in (_edges_to_csr, _directed_edges_to_csr):
            csr = build(empty, empty, 5)
            np.testing.assert_array_equal(csr.indptr, np.zeros(6, dtype=np.int64))
            assert csr.nnz == 0


def _python_reach(topo, sources, passable, levels=None):
    """Set-based BFS: passable nodes reached from ``sources`` through passable nodes."""

    csr = topo.neighbor_csr()
    reached = set()
    frontier = {int(s) for s in sources}
    depth = 0
    while frontier and (levels is None or depth < levels):
        nxt = set()
        for row in frontier:
            for v in csr.row(row).tolist():
                if v < topo.n and passable[v] and v not in reached:
                    nxt.add(v)
        reached |= nxt
        frontier = nxt
        depth += 1
    return reached


def _kernel_topologies():
    return [
        make_gilbert(n=150, radius=0.12, seed=5),
        make_gilbert(n=150, radius=0.05, seed=6),
        make_scale_free(n=150, alpha=1.6, seed=7),
    ]


class TestBfsKernelMatchesSetBfs:
    """The shared BFS kernel agrees with a pure-Python set BFS on every caller."""

    @pytest.mark.parametrize("topo_index", [0, 1, 2])
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
    def test_frontier_reachable(self, topo_index, density):
        topo = _kernel_topologies()[topo_index]
        rng = np.random.default_rng(topo_index * 10 + int(density * 10))
        for _ in range(5):
            passable = rng.random(topo.n) < density
            sources = rng.choice(topo.n, size=int(rng.integers(1, 6)), replace=False)
            for rows in (sources, np.array([topo.n]), np.append(sources, topo.n)):
                got = topo.frontier_reachable(rows.astype(np.int64), passable)
                assert got.dtype == bool and got.shape == (topo.n,)
                assert set(np.flatnonzero(got).tolist()) == _python_reach(topo, rows, passable)

    def test_empty_sources_and_impassable_mask_reach_nothing(self):
        for topo in _kernel_topologies():
            everyone = np.ones(topo.n, dtype=bool)
            nobody = np.zeros(topo.n, dtype=bool)
            empty = np.empty(0, dtype=np.int64)
            assert not topo.frontier_reachable(empty, everyone).any()
            assert not topo.frontier_reachable(np.arange(topo.n + 1), nobody).any()

    @pytest.mark.parametrize("topo_index", [0, 1, 2])
    def test_alice_statistics(self, topo_index):
        topo = _kernel_topologies()[topo_index]
        everyone = np.ones(topo.n, dtype=bool)
        alice = np.array([topo.n])
        assert set(topo.reachable_from_alice()) == _python_reach(topo, alice, everyone)
        for hops in (1, 2, 3, 6):
            expected = _python_reach(topo, alice, everyone, levels=hops)
            assert set(np.flatnonzero(topo.alice_within(hops)).tolist()) == expected

    @pytest.mark.parametrize("topo_index", [0, 1, 2])
    def test_connected_components(self, topo_index):
        topo = _kernel_topologies()[topo_index]
        everyone = np.ones(topo.n, dtype=bool)
        components = topo.connected_components()
        assert sorted(v for c in components for v in c) == list(range(topo.n))
        for component in components:
            start = min(component)
            assert component == _python_reach(topo, [start], everyone) | {start}


class _CheckedRelayDemand(MultiHopBroadcast):
    """Cross-checks the incremental relay counts after every phase."""

    checks = 0
    retired = 0

    def _apply_result(self, plan, roles, result, state, round_index, clock):
        topology = self.network.topology
        relays = state.active_informed_array()
        super()._apply_result(plan, roles, result, state, round_index, clock)
        cohort = state.active_uninformed_array()
        if relays.size and plan.kind in (PhaseKind.PROPAGATION, PhaseKind.REQUEST):
            # The relays this phase retired are exactly those with no active
            # uninformed neighbour left.
            retired = np.setdiff1d(relays, state.active_informed_array())
            expected = relays[~topology.any_neighbor_in(relays, cohort)]
            np.testing.assert_array_equal(retired, expected)
            type(self).retired += int(expected.size)
        if self._relay_demand is not None:
            counts = self._relay_demand.update(cohort)
            everyone = np.arange(topology.n)
            members = np.zeros(topology.n + 1, dtype=bool)
            members[cohort] = True
            origins, nbrs = topology.neighbor_csr().expand(everyone)
            exact = np.bincount(origins[members[nbrs]], minlength=topology.n)
            np.testing.assert_array_equal(counts, exact)
            np.testing.assert_array_equal(counts > 0, topology.any_neighbor_in(everyone, cohort))
            type(self).checks += 1


class TestIncrementalRelayDemand:
    @pytest.mark.parametrize("spec,engine,n", [
        (TopologySpec.gilbert(), "fast", 300),
        (TopologySpec.gilbert(radius=0.7 * gilbert_connectivity_radius(300)), "fast", 300),
        (TopologySpec.scale_free(), "fast", 300),
        (TopologySpec.gilbert(), "slot", 48),
    ])
    def test_counts_match_any_neighbor_in_after_every_phase(self, spec, engine, n):
        _CheckedRelayDemand.checks = _CheckedRelayDemand.retired = 0
        config = SimulationConfig(n=n, seed=3, topology=spec)
        protocol = _CheckedRelayDemand(config, engine=engine)
        protocol.run()
        assert _CheckedRelayDemand.checks > 0
        assert _CheckedRelayDemand.retired > 0
        # A second run on the same orchestrator starts from fresh counts.
        before = _CheckedRelayDemand.checks
        protocol.run()
        assert _CheckedRelayDemand.checks > before


class TestHubSweepMemory:
    """The scale-free hub sweep's transient stays bounded as m grows."""

    @staticmethod
    def _hub_graph(m, hubs, seed=0):
        rng = np.random.default_rng(seed)
        positions = rng.random((m, 2))
        radii = np.full(m, 0.002)
        radii[rng.choice(m, size=hubs, replace=False)] = 0.05
        return positions, radii

    def test_peak_memory_is_bounded(self):
        import tracemalloc

        from repro.simulation.topology import _scale_free_edges_grid

        positions, radii = self._hub_graph(50_000, 64)
        tracemalloc.start()
        try:
            _scale_free_edges_grid(positions, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 64-hub block over 5e4 points would hold ~100 MiB of distances.
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("cells", [1, 3001 * 5, 1 << 40])
    def test_edges_do_not_depend_on_chunking(self, cells, monkeypatch):
        from repro.simulation import topology as topology_module

        positions, radii = self._hub_graph(3000, 100, seed=1)
        reference = topology_module._scale_free_edges_grid(positions, radii)
        monkeypatch.setattr(topology_module, "_HUB_SWEEP_CELLS", cells)
        us, vs = topology_module._scale_free_edges_grid(positions, radii)
        np.testing.assert_array_equal(us, reference[0])
        np.testing.assert_array_equal(vs, reference[1])
        hubs = np.flatnonzero(radii > 0.01)
        for hub in hubs[:5]:
            d2 = ((positions - positions[hub]) ** 2).sum(axis=1)
            expected = np.flatnonzero(d2 <= radii[hub] ** 2)
            assert set(vs[us == hub].tolist()) == set(expected.tolist()) - {hub}

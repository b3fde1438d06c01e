"""Unit tests for the energy ledger (the paper's cost model)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation import ConfigurationError, LedgerArray


def make_ledger(node_budget=10.0, alice_budget=10.0, carol_budget=10.0, n=4):
    return LedgerArray(
        n, node_budget=node_budget, alice_budget=alice_budget, carol_budget=carol_budget
    )


class TestEnergyOperations:
    def test_all_operations_cost_one_unit(self):
        # Send, listen, jam and spoof slots all cost one unit: the default charge.
        ledger = make_ledger()
        for row in (0, ledger.alice, ledger.carol):
            assert ledger.charge(row)
            assert ledger.spent(row) == 1.0


class TestEnergyLedgerRecording:
    def test_initial_state(self):
        ledger = make_ledger()
        assert ledger.alice == 4 and ledger.carol == 5
        for row in range(6):
            assert ledger.spent(row) == 0
        assert ledger.remaining(ledger.carol) == 10
        assert ledger.node_spent.tolist() == [0.0] * 4

    def test_charge_accumulates(self):
        ledger = make_ledger()
        ledger.charge(1)
        ledger.charge(1)
        ledger.charge(1)
        assert ledger.spent(1) == 3
        assert ledger.spent(0) == 0

    def test_zero_charge_is_noop(self):
        ledger = make_ledger()
        assert ledger.charge(0, 0)
        assert ledger.spent(0) == 0

    def test_negative_charge_rejected(self):
        ledger = make_ledger()
        with pytest.raises(ConfigurationError, match="node:2"):
            ledger.charge(2, -1)

    def test_record_policy_allows_overdraft(self):
        ledger = make_ledger(node_budget=2, alice_budget=2)
        for row in (0, ledger.alice):
            for _ in range(5):
                assert ledger.charge(row)
            assert ledger.spent(row) == 5
            assert ledger.overdrafts()[row] == 3

    def test_negative_budget_rejected(self):
        for budgets in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
            with pytest.raises(ConfigurationError):
                make_ledger(*budgets)

    def test_infinite_budget_never_exhausts(self):
        ledger = make_ledger(carol_budget=math.inf)
        assert ledger.charge_bulk(ledger.carol, 1e9) == 1e9
        assert ledger.remaining(ledger.carol) == math.inf
        assert ledger.charge(ledger.carol, 1e12)


class TestEnergyLedgerEnforcement:
    def test_cap_policy_refuses_without_raising(self):
        ledger = make_ledger(carol_budget=2)
        assert ledger.charge(ledger.carol)
        assert ledger.charge(ledger.carol)
        assert not ledger.charge(ledger.carol)
        assert ledger.spent(ledger.carol) == 2

    def test_exhausted_flag(self):
        ledger = make_ledger(carol_budget=1)
        assert ledger.remaining(ledger.carol) == 1
        ledger.charge(ledger.carol)
        assert ledger.remaining(ledger.carol) == 0
        assert not ledger.charge(ledger.carol)


class TestChargeBulk:
    def test_bulk_within_budget(self):
        ledger = make_ledger(node_budget=100)
        charged = ledger.charge_bulk(0, 40)
        assert charged == 40
        assert ledger.spent(0) == 40

    def test_bulk_cap_truncates(self):
        ledger = make_ledger(carol_budget=10)
        charged = ledger.charge_bulk(ledger.carol, 25)
        assert charged == 10
        assert ledger.spent(ledger.carol) == 10
        assert ledger.remaining(ledger.carol) == 0

    def test_bulk_cap_when_exhausted_returns_zero(self):
        ledger = make_ledger(carol_budget=1)
        ledger.charge_bulk(ledger.carol, 1)
        assert ledger.charge_bulk(ledger.carol, 5) == 0

    def test_bulk_record_allows_overdraft(self):
        ledger = make_ledger(node_budget=5, alice_budget=5)
        for row in (3, ledger.alice):
            assert ledger.charge_bulk(row, 9) == 9
            assert ledger.overdrafts()[row] == 4

    def test_bulk_negative_rejected(self):
        ledger = make_ledger()
        with pytest.raises(ConfigurationError, match="alice"):
            ledger.charge_bulk(ledger.alice, -3)

    def test_bulk_zero_is_noop(self):
        ledger = make_ledger()
        assert ledger.charge_bulk(0, 0) == 0


class TestLedgerArray:
    """Vectorised charges over node cohorts, and the one-row interface."""

    def test_charge_bulk_many_records_per_device(self):
        ledger = make_ledger()
        charged = ledger.charge_many(np.array([0, 2]), np.array([3.0, 5.0]))
        assert charged.tolist() == [3.0, 5.0]
        assert ledger.node_spent.tolist() == [3.0, 0.0, 5.0, 0.0]
        assert ledger.spent(1) == 0.0

    def test_charge_bulk_many_matches_per_device_charge_bulk(self):
        """The vector op must be indistinguishable from one charge_bulk per row."""

        vector = make_ledger(node_budget=100.0)
        reference = make_ledger(node_budget=100.0)
        rows = np.array([0, 1, 3])
        units = np.array([2.0, 7.0, 1.5])
        vector.charge_many(rows, units)
        for row, amount in zip(rows, units):
            reference.charge_bulk(int(row), float(amount))
        for row in range(4):
            assert vector.spent(row) == reference.spent(row)

    def test_cap_binds_only_carols_row(self):
        ledger = make_ledger(node_budget=5.0, alice_budget=5.0, carol_budget=5.0)
        assert ledger.charge_bulk(ledger.carol, 8.0) == 5.0
        charged = ledger.charge_many(np.array([0, 1]), np.array([8.0, 3.0]))
        assert charged.tolist() == [8.0, 3.0]  # node rows record, never clip
        assert ledger.charge_bulk(ledger.alice, 8.0) == 8.0
        assert ledger.overdrafts().tolist() == [3.0, 0.0, 0.0, 0.0, 3.0, 0.0]

    def test_shape_mismatch_and_negative_rejected(self):
        ledger = make_ledger()
        with pytest.raises(ConfigurationError):
            ledger.charge_many(np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            ledger.charge_many(np.array([0]), np.array([-1.0]))

    def test_rows_share_one_interface(self):
        ledger = make_ledger(node_budget=3.0, alice_budget=3.0, carol_budget=3.0)
        for row in (1, ledger.alice, ledger.carol):
            assert ledger.charge(row)
            assert ledger.charge(row, 2.0)
            assert ledger.spent(row) == 3.0
            assert ledger.remaining(row) == 0.0
        # Only Carol's row refuses the fourth unit.
        assert ledger.charge(1)
        assert ledger.charge(ledger.alice)
        assert not ledger.charge(ledger.carol)
        assert ledger.charge_bulk(ledger.carol, 5.0) == 0.0
        assert [ledger.label(r) for r in (1, ledger.alice, ledger.carol)] == [
            "node:1",
            "alice",
            "carol",
        ]

    def test_charge_many_rejects_non_node_rows(self):
        ledger = make_ledger()
        for row in (-1, ledger.alice, ledger.carol):
            with pytest.raises(ConfigurationError):
                ledger.charge_many(np.array([row]), np.array([1.0]))
        assert ledger.spent(ledger.carol) == 0.0

    def test_network_nodes_are_array_backed(self):
        from repro.simulation import Network, SimulationConfig

        network = Network(SimulationConfig(n=8, seed=1))
        ledger = network.ledger
        ledger.charge(3)
        ledger.charge_many(np.arange(8), np.full(8, 2.0))
        costs = network.node_costs()
        assert costs[3] == 3.0 and costs[0] == 2.0
        assert ledger.spent(3) == 3.0
        assert ledger.node_total() == 17.0
        assert network.cost_snapshot()["node_max"] == 3.0
        # node_costs() is a copy; the ledger's node window is read-only.
        costs[3] = 0.0
        assert ledger.spent(3) == 3.0
        with pytest.raises(ValueError):
            ledger.node_spent[0] = 1.0

"""The network container.

:class:`Network` instantiates the whole cast of the Alice-versus-Carol game
from a :class:`~repro.simulation.config.SimulationConfig`: one energy ledger
with a row for each correct node, Alice, and Carol's aggregate side, the
shared channel, the authenticator, and the root random source.  Devices are
row indices, not objects.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .auth import Authenticator
from .channel import Channel
from .config import SimulationConfig
from .energy import LedgerArray
from .errors import ConfigurationError
from .rng import RandomSource
from .topology import Topology, build_topology

__all__ = ["Network"]


class Network:
    """All devices and shared infrastructure for one simulation run.

    Parameters
    ----------
    config:
        The model parameters.
    seed:
        Optional seed override; defaults to ``config.seed``.
    topology:
        Optional pre-built :class:`~repro.simulation.topology.Topology`.
        When omitted, the topology is realised from ``config.topology``
        (single-hop when that is ``None``) using the network's own seeded
        random source, so runs stay a pure function of the seed.  Spatial
        graphs are held as a CSR neighbour list;
        :meth:`topology_memory_bytes` reports its footprint.

    Energy lives in :attr:`ledger`, a :class:`~repro.simulation.energy.LedgerArray`
    whose rows follow the topology's Alice-last layout: node ``i`` is row
    ``i``, Alice is row ``n`` and Carol's aggregate is row ``n + 1`` — the
    only row whose budget binds.
    """

    def __init__(
        self,
        config: SimulationConfig,
        seed: int | None = None,
        topology: Topology | None = None,
    ) -> None:
        self.config = config
        self.random_source = RandomSource(config.seed if seed is None else seed)
        if topology is not None:
            if topology.n != config.n:
                raise ConfigurationError(
                    f"topology is over n={topology.n} nodes but config has n={config.n}"
                )
            self.topology = topology
        else:
            self.topology = build_topology(config.topology, config.n, self.random_source)
        self.channel = Channel(topology=self.topology)
        self.authenticator = Authenticator()
        self.message_payload = "m"
        self.message_signature = self.authenticator.sign(self.message_payload)
        self.ledger = LedgerArray(
            config.n,
            node_budget=config.node_budget,
            alice_budget=config.alice_budget,
            carol_budget=config.adversary_total_budget,
        )

    @property
    def n(self) -> int:
        """Number of correct nodes."""

        return self.config.n

    def topology_memory_bytes(self) -> int:
        """Bytes held by the realised radio-graph adjacency.

        Spatial topologies count their CSR arrays; the implicit single-hop
        topology stores nothing.  Benchmarks use this to verify that large-n
        runs stay within the sparse memory envelope.
        """

        return self.topology.memory_bytes()

    # ------------------------------------------------------------------ #
    # Cost accounting                                                     #
    # ------------------------------------------------------------------ #

    @property
    def alice_cost(self) -> float:
        return self.ledger.spent(self.ledger.alice)

    @property
    def adversary_cost(self) -> float:
        return self.ledger.spent(self.ledger.carol)

    def node_costs(self) -> np.ndarray:
        """Copy of the per-node energy expenditure (index = node id)."""

        return self.ledger.node_spent.copy()

    def cost_snapshot(self) -> Dict[str, float]:
        """A flat summary used by outcomes, metrics, and reports."""

        costs = self.ledger.node_spent
        return {
            "alice": self.alice_cost,
            "adversary": self.adversary_cost,
            "node_mean": float(costs.mean()) if costs.size else 0.0,
            "node_max": float(costs.max()) if costs.size else 0.0,
            "node_total": float(costs.sum()),
        }

    def budget_overruns(self) -> Dict[str, float]:
        """Per-party budget overdrafts by ledger label (empty when all budgets held)."""

        overdrafts = self.ledger.overdrafts()
        return {
            self.ledger.label(int(row)): float(overdrafts[row])
            for row in np.flatnonzero(overdrafts > 0)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.config.describe()})"

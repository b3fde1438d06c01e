"""Shared machinery for baseline broadcast protocols.

The baselines exist so the experiments can reproduce the paper's *positioning*
claims: the naive always-retransmit strategy pays ``Θ(T)`` per device, the
King–Saia–Young line of work pays ``O(T^{0.62})`` at the sender but ``Θ(T)``
at each receiver, and a simple balanced epoch-backoff achieves ``O(T^{1/2})``
on both sides — all strictly worse than ε-Broadcast's ``Õ(T^{1/(k+1)})``.

Every baseline is an *epoch* protocol: epoch ``i`` is a single
:class:`~repro.simulation.phaseplan.PhasePlan` of geometrically growing length
in which Alice transmits and uninformed nodes listen with epoch-specific
probabilities.  Baselines are deliberately given two advantages ε-Broadcast
does not enjoy — an oracle that stops the run once every node is informed
(they have no termination mechanism of their own) and freedom from the
request-phase overhead — so the cost comparison against them is conservative.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..adversary.base import Adversary
from ..adversary.none import NullAdversary
from ..simulation.clock import SlotClock
from ..simulation.config import SimulationConfig
from ..simulation.engine import SlotEngine
from ..simulation.errors import ConfigurationError
from ..simulation.events import EventLog, PhaseRecord
from ..simulation.fastengine import PhaseEngine
from ..simulation.metrics import CostBreakdown, DeliveryStats
from ..simulation.network import Network
from ..simulation.phaseplan import PhaseContext, PhaseKind, PhasePlan, PhaseRoles
from ..core.outcome import BroadcastOutcome
from ..core.state import ProtocolState

__all__ = ["EpochBaseline"]


class EpochBaseline(abc.ABC):
    """Base class for epoch-structured baseline broadcast protocols.

    Parameters
    ----------
    config:
        Model parameters shared with ε-Broadcast runs.
    adversary:
        Carol's strategy; defaults to no attack.
    engine:
        ``"fast"`` (default), ``"slot"``, or an engine instance.
    max_epoch:
        Last epoch index before the run is abandoned; defaults to two epochs
        past the point where a single epoch outlasts Carol's entire aggregate
        budget, so a baseline always finishes once the jamming stops.
    """

    protocol_name = "epoch-baseline"

    def __init__(
        self,
        config: SimulationConfig,
        adversary: Optional[Adversary] = None,
        engine: str | SlotEngine | PhaseEngine = "fast",
        network: Optional[Network] = None,
        max_epoch: Optional[int] = None,
    ) -> None:
        self.config = config
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.network = network if network is not None else Network(config)
        # Topology-dependent strategies (e.g. spatial disk jammers) resolve
        # their victim sets against the realised network; no-op by default.
        self.adversary.bind_network(self.network)
        self.engine = self._resolve_engine(engine)
        if max_epoch is not None:
            self.max_epoch = max_epoch
        else:
            horizon = max(config.adversary_total_budget, float(config.n))
            self.max_epoch = int(math.ceil(math.log2(horizon))) + 2

    def _resolve_engine(self, engine):
        if isinstance(engine, (SlotEngine, PhaseEngine)):
            return engine
        if engine == "fast":
            return PhaseEngine(self.network)
        if engine == "slot":
            return SlotEngine(self.network)
        raise ConfigurationError(f"unknown engine specification {engine!r}")

    # ------------------------------------------------------------------ #
    # Per-epoch behaviour supplied by subclasses                          #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def epoch_length(self, epoch: int) -> int:
        """Number of slots in epoch ``i``."""

    @abc.abstractmethod
    def alice_send_probability(self, epoch: int) -> float:
        """Alice's per-slot sending probability during epoch ``i``."""

    @abc.abstractmethod
    def node_listen_probability(self, epoch: int) -> float:
        """An uninformed node's per-slot listening probability during epoch ``i``."""

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def epoch_plan(self, epoch: int) -> PhasePlan:
        """The phase plan realising epoch ``i``."""

        return PhasePlan(
            name=f"epoch:{epoch}",
            kind=PhaseKind.INFORM,
            round_index=epoch,
            num_slots=self.epoch_length(epoch),
            alice_send_prob=self.alice_send_probability(epoch),
            uninformed_listen_prob=self.node_listen_probability(epoch),
        )

    def run(self) -> BroadcastOutcome:
        """Execute the baseline until every node is informed (or the cap)."""

        state = ProtocolState(self.config.n)
        clock = SlotClock()
        log = EventLog()
        terminated_by_cap = True

        ledger = self.network.ledger
        for epoch in range(1, self.max_epoch + 1):
            plan = self.epoch_plan(epoch)
            roles = PhaseRoles(
                active_uninformed=state.active_uninformed_array(),
                alice_active=True,
            )
            context = PhaseContext(
                plan=plan,
                roles=roles,
                config=self.config,
                history=log.phases,
                adversary_remaining_budget=ledger.remaining(ledger.carol),
            )
            # Same per-phase re-resolution hook as the ε-Broadcast family:
            # mobile strategies track time against baselines too.
            self.adversary.observe_phase(context)
            jam_plan = self.adversary.plan_phase(context)

            alice_before = ledger.spent(ledger.alice)
            nodes_before = ledger.node_total()
            clock.begin_phase(epoch, plan.name)
            result = self.engine.run_phase(plan, roles, jam_plan, start_slot=clock.now)
            clock.advance(plan.num_slots)
            clock.end_phase()

            if result.newly_informed.size:
                state.mark_informed(result.newly_informed, slot=clock.now)
                # Baseline receivers stop as soon as they hold the message.
                state.terminate_informed(result.newly_informed, epoch)

            self.adversary.observe_result(context, result)
            log.record_phase(
                PhaseRecord.of(
                    plan,
                    result,
                    round_index=epoch,
                    start_slot=clock.now - plan.num_slots,
                    status_counts=state.status_counts(),
                    alice_cost=ledger.spent(ledger.alice) - alice_before,
                    nodes_cost=ledger.node_total() - nodes_before,
                )
            )

            if not state.active_uninformed_array().size:
                terminated_by_cap = False
                break

        # The oracle stops Alice the moment the last node is informed.
        state.terminate_alice(min(self.max_epoch, log.phases[-1].round_index if log.phases else 0))
        state.terminate_uninformed(state.active_uninformed_array(), self.max_epoch)
        self.final_state = state

        delivery = DeliveryStats(
            n=self.config.n,
            informed=state.terminated_informed_count(),
            terminated_informed=state.terminated_informed_count(),
            terminated_uninformed=state.terminated_uninformed_count(),
            slots_elapsed=clock.now,
            rounds_executed=log.rounds_executed(),
            alice_terminated=True,
        )
        costs = CostBreakdown.from_snapshot(
            self.network.cost_snapshot(), per_node=self.network.node_costs()
        )
        return BroadcastOutcome(
            protocol=self.protocol_name,
            adversary=getattr(self.adversary, "name", type(self.adversary).__name__),
            config=self.config,
            delivery=delivery,
            costs=costs,
            events=log,
            terminated_by_cap=terminated_by_cap,
        )

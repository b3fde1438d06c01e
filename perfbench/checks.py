"""Output checks: a run that fails one counts as a failed operation.

Each check returns a list of human-readable failures; an empty list passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CaseResult:
    """What the checks and the ``model.*`` metrics read from one protocol run."""

    name: str
    n: int
    epsilon: float
    single_hop: bool
    informed: int
    terminated_informed: int
    terminated_uninformed: int
    slots: int
    rounds: int
    terminated_by_cap: bool
    alice_cost: float
    node_cost_max: float
    adversary_spend: float
    adversary_budget: float
    reachable: Optional[int] = None
    """Size of Alice's connected component, where delivery must cover it."""

    def model(self) -> Tuple[object, ...]:
        """The simulated outcome; a pure speed-up must leave it unchanged."""

        return (
            self.informed,
            self.terminated_informed,
            self.terminated_uninformed,
            self.slots,
            self.rounds,
            self.terminated_by_cap,
            self.alice_cost,
            self.node_cost_max,
            self.adversary_spend,
        )


def check_case(r: CaseResult) -> List[str]:
    failures = []
    terminated = r.terminated_informed + r.terminated_uninformed
    if terminated != r.n or r.informed != r.terminated_informed:
        failures.append(
            f"{r.name}: statuses do not partition n={r.n} (informed={r.informed}, "
            f"terminated informed={r.terminated_informed}, uninformed={r.terminated_uninformed})"
        )
    if not r.adversary_spend <= r.adversary_budget:
        failures.append(
            f"{r.name}: adversary spent {r.adversary_spend} over her budget {r.adversary_budget}"
        )
    if r.terminated_by_cap:
        failures.append(f"{r.name}: run ended at the round cap")
    if r.single_hop and r.informed < (1.0 - r.epsilon) * r.n:
        failures.append(f"{r.name}: informed {r.informed} < (1-eps)n = {(1.0 - r.epsilon) * r.n}")
    if r.reachable is not None and r.informed != r.reachable:
        failures.append(f"{r.name}: informed {r.informed} != Alice's component {r.reachable}")
    return failures


@dataclass(frozen=True)
class SweepPass:
    """One experiment of the registry, run once: its table and runner counters."""

    experiment: str
    table: str
    trials: int
    executed: int
    cache_hits: int
    quarantined: int


def check_cold(cold: SweepPass) -> List[str]:
    if cold.quarantined:
        return [f"{cold.experiment}: {cold.quarantined} trials quarantined"]
    return []


def check_warm(cold: SweepPass, warm: SweepPass) -> List[str]:
    """A warm table is byte-identical to the cold one and executes nothing."""

    failures = []
    if warm.table.encode() != cold.table.encode():
        failures.append(f"{warm.experiment}: warm table differs from the cold one")
    if warm.executed or warm.quarantined:
        failures.append(
            f"{warm.experiment}: warm pass executed {warm.executed} and quarantined "
            f"{warm.quarantined} trials"
        )
    return failures

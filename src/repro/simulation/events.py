"""Phase-level record of a simulation run.

One :class:`PhaseRecord` per executed phase says how the run unfolded — how
many slots Carol jammed, how many nodes became informed, what each side
spent — without the memory cost of a slot trace for million-slot
executions.  The records are always kept: outcome assembly counts rounds from
them, adaptive adversaries read them as their history, and the opt-in trace
stream's ``"phase"`` event is :meth:`PhaseRecord.trace_data` of the same
record.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from ..observability.trace import Scalar
    from .phaseplan import PhasePlan, PhaseResult

__all__ = ["PhaseRecord", "EventLog"]


@dataclass(frozen=True)
class PhaseRecord:
    """Summary of one executed phase.

    The state counts (``informed_total`` .. ``terminated_uninformed``) are
    taken after the phase's protocol transitions; the costs are the deltas
    the phase added to Alice's and the nodes' ledger rows.
    """

    round_index: int
    phase_name: str
    kind: str
    step: int
    num_slots: int
    start_slot: int
    newly_informed: int
    informed_total: int
    frontier: int
    active_uninformed: int
    terminated_informed: int
    terminated_uninformed: int
    jammed_slots: int
    busy_slots: int
    delivery_slots: int
    spoofed_transmissions: int
    adversary_spend: float
    alice_cost: float
    nodes_cost: float
    alice_noisy_heard: int
    request_noisy_total: float

    @classmethod
    def of(
        cls,
        plan: "PhasePlan",
        result: "PhaseResult",
        *,
        round_index: int,
        start_slot: int,
        status_counts: Tuple[int, int, int, int],
        alice_cost: float,
        nodes_cost: float,
    ) -> "PhaseRecord":
        """The record of ``plan`` executed as ``result``.

        ``status_counts`` are the post-phase ``(active uninformed, active
        informed, terminated informed, terminated uninformed)`` node counts.
        """

        uninformed, informed, terminated_informed, terminated_uninformed = status_counts
        return cls(
            round_index=round_index,
            phase_name=plan.name,
            kind=plan.kind.value,
            step=plan.step,
            num_slots=plan.num_slots,
            start_slot=start_slot,
            newly_informed=int(result.newly_informed.size),
            informed_total=informed + terminated_informed,
            frontier=informed,
            active_uninformed=uninformed,
            terminated_informed=terminated_informed,
            terminated_uninformed=terminated_uninformed,
            jammed_slots=result.jammed_slots,
            busy_slots=result.busy_slots,
            delivery_slots=result.delivery_slots,
            spoofed_transmissions=result.spoofed_transmissions,
            adversary_spend=result.adversary_spend,
            alice_cost=alice_cost,
            nodes_cost=nodes_cost,
            alice_noisy_heard=result.alice_noisy_heard,
            request_noisy_total=float(result.node_noisy_heard.sum()),
        )

    @property
    def jammed_fraction(self) -> float:
        """Fraction of the phase's slots that were jammed."""

        if self.num_slots == 0:
            return 0.0
        return self.jammed_slots / self.num_slots

    def trace_data(self) -> Dict[str, "Scalar"]:
        """Payload of the trace stream's ``"phase"`` event: every field but
        the round and phase name, which the event carries itself."""

        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}


class EventLog:
    """The phase records of one run, in execution order."""

    def __init__(self) -> None:
        self._phases: List[PhaseRecord] = []

    @property
    def phases(self) -> Sequence[PhaseRecord]:
        """The records so far.  The log's own list, not a copy: treat it as
        read-only (it is what adversaries receive as their history)."""

        return self._phases

    def record_phase(self, record: PhaseRecord) -> None:
        self._phases.append(record)

    def total_jammed_slots(self) -> int:
        return sum(p.jammed_slots for p in self._phases)

    def total_slots(self) -> int:
        return sum(p.num_slots for p in self._phases)

    def rounds_executed(self) -> int:
        return len({p.round_index for p in self._phases})

    def __len__(self) -> int:
        return len(self._phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog(phases={len(self._phases)})"

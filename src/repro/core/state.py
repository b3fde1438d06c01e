"""Per-node protocol state.

:class:`ProtocolState` tracks, for every correct node and for Alice, where it
is in the ε-Broadcast life cycle:

* **uninformed & active** — still listening for ``m``;
* **informed & active** — received ``m`` in the most recent phase and will
  relay it during the next propagation step before terminating;
* **terminated informed / terminated uninformed** — done, with or without the
  message (the latter is the ε-fraction the protocol is allowed to lose).

The orchestrators in :mod:`repro.core.broadcast` drive all transitions; the
state object only enforces their legality.

Storage is structure-of-arrays: one ``int8`` status-code array plus ``int64``
slot/round ledgers, so the hot-path queries (`active_uninformed_array`,
`active_informed_array`, the counts) are numpy mask operations instead of
dict scans.  The sorted active-id arrays are cached and invalidated by a
transition counter — repeated reads between transitions return the *same*
array object, which the relay-retirement hot path relies on.  Observers
read the arrays themselves (``informed_mask()``, ``informed_at_slot``,
``terminated_at_round``) through read-only views.

The interface is arrays end to end: transitions take any iterable of ids
(an ``int64`` array passes through without a copy), and
:meth:`ProtocolState.mark_informed` returns the ids that changed as a
sorted ``int64`` array when its input is sorted (the engines'
``PhaseResult.newly_informed`` always is).  No query builds a Python set.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..simulation.errors import ProtocolViolationError

__all__ = ["NodeStatus", "ProtocolState"]


class NodeStatus(enum.Enum):
    """Life-cycle status of a correct node."""

    UNINFORMED = "uninformed"
    INFORMED = "informed"
    TERMINATED_INFORMED = "terminated_informed"
    TERMINATED_UNINFORMED = "terminated_uninformed"

    @property
    def is_terminated(self) -> bool:
        return self in (NodeStatus.TERMINATED_INFORMED, NodeStatus.TERMINATED_UNINFORMED)

    @property
    def is_informed(self) -> bool:
        return self in (NodeStatus.INFORMED, NodeStatus.TERMINATED_INFORMED)


# Status codes for the structure-of-arrays backing store.
_UNINFORMED = 0
_INFORMED = 1
_TERM_INFORMED = 2
_TERM_UNINFORMED = 3

_CODE_TO_STATUS = {
    _UNINFORMED: NodeStatus.UNINFORMED,
    _INFORMED: NodeStatus.INFORMED,
    _TERM_INFORMED: NodeStatus.TERMINATED_INFORMED,
    _TERM_UNINFORMED: NodeStatus.TERMINATED_UNINFORMED,
}


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.setflags(write=False)
    return view


class ProtocolState:
    """Mutable protocol state for one execution (structure-of-arrays)."""

    __slots__ = (
        "n",
        "alice_terminated",
        "alice_terminated_at_round",
        "quiet_streaks",
        "_codes",
        "_informed_at_slot",
        "_terminated_at_round",
        "_version",
        "_cache_version",
        "_cached_ids",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.alice_terminated = False
        self.alice_terminated_at_round: Optional[int] = None
        # Per-node quiet-rule retry state: quiet_streaks[i] counts the request
        # phases node i has completed while still uninformed (every one of
        # them is quiet or nack-only — a request phase never carries the
        # message).  Living on the per-run state, the counters reset with
        # every run by construction; a reused orchestrator cannot leak a
        # previous run's count.
        self.quiet_streaks = np.zeros(n, dtype=np.int64)
        self._codes = np.zeros(n, dtype=np.int8)
        self._informed_at_slot = np.full(n, -1, dtype=np.int64)
        self._terminated_at_round = np.full(n, -1, dtype=np.int64)
        # Transition counter invalidating the cached active-id arrays (status
        # code -> sorted ids, each built on first use after a transition).
        self._version = 0
        self._cache_version = -1
        self._cached_ids: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    @property
    def informed_at_slot(self) -> np.ndarray:
        """Read-only ``int64`` array: slot node ``i`` received ``m`` (``-1`` = never)."""

        return _read_only(self._informed_at_slot)

    @property
    def terminated_at_round(self) -> np.ndarray:
        """Read-only ``int64`` array: round node ``i`` terminated (``-1`` = active)."""

        return _read_only(self._terminated_at_round)

    def informed_mask(self) -> np.ndarray:
        """Boolean array: node ``i`` holds ``m`` (active or terminated)."""

        return (self._codes == _INFORMED) | (self._codes == _TERM_INFORMED)

    def status(self, node_id: int) -> NodeStatus:
        return _CODE_TO_STATUS[int(self._codes[node_id])]

    def _ids_with(self, code: int) -> np.ndarray:
        if self._cache_version != self._version:
            self._cached_ids = {}
            self._cache_version = self._version
        ids = self._cached_ids.get(code)
        if ids is None:
            # np.flatnonzero returns ascending ids — already sorted, so
            # downstream termination order is deterministic.
            ids = np.flatnonzero(self._codes == code)
            ids.setflags(write=False)
            self._cached_ids[code] = ids
        return ids

    def active_uninformed_array(self) -> np.ndarray:
        """Nodes still executing the protocol without the message.

        A sorted read-only ``int64`` array: the phase cohort the engines
        serve and the quiet-rule machinery indexes budget and streak arrays
        with.  Cached between transitions: repeated calls return the *same*
        array object until the state mutates, so hot paths can call this
        every phase for free.
        """

        return self._ids_with(_UNINFORMED)

    def active_informed_array(self) -> np.ndarray:
        """Nodes holding the message that have not yet terminated (relays).

        Same caching contract as :meth:`active_uninformed_array`; this is
        the relay frontier the multi-hop orchestrator serves to the engine
        and to relay retirement.
        """

        return self._ids_with(_INFORMED)

    def record_unserved_request_phase(self, node_ids: np.ndarray) -> np.ndarray:
        """Bump the quiet streak of every node in ``node_ids``; returns the array.

        Called once per request phase with the still-uninformed cohort; the
        returned array is the live per-node streak state (indexed by node id).
        """

        self.quiet_streaks[node_ids] += 1
        return self.quiet_streaks

    def active_uninformed_count(self) -> int:
        return int(np.count_nonzero(self._codes == _UNINFORMED))

    def active_informed_count(self) -> int:
        return int(np.count_nonzero(self._codes == _INFORMED))

    def informed_count(self) -> int:
        return int(np.count_nonzero(self.informed_mask()))

    def terminated_informed_count(self) -> int:
        return int(np.count_nonzero(self._codes == _TERM_INFORMED))

    def terminated_uninformed_count(self) -> int:
        return int(np.count_nonzero(self._codes == _TERM_UNINFORMED))

    def status_counts(self) -> Tuple[int, int, int, int]:
        """``(active uninformed, active informed, terminated informed,
        terminated uninformed)`` node counts."""

        codes = self._codes
        return (
            int(np.count_nonzero(codes == _UNINFORMED)),
            int(np.count_nonzero(codes == _INFORMED)),
            int(np.count_nonzero(codes == _TERM_INFORMED)),
            int(np.count_nonzero(codes == _TERM_UNINFORMED)),
        )

    def all_nodes_terminated(self) -> bool:
        return bool(np.all(self._codes >= _TERM_INFORMED))

    def everyone_done(self) -> bool:
        """Protocol-over condition: Alice and every correct node terminated."""

        return self.alice_terminated and self.all_nodes_terminated()

    # ------------------------------------------------------------------ #
    # Transitions                                                         #
    # ------------------------------------------------------------------ #

    def _move(
        self,
        node_ids: Iterable[int],
        source: int,
        target: int,
        stamp: np.ndarray,
        value: int,
        violation: str,
    ) -> np.ndarray:
        """Move the ids whose status is ``source`` to ``target``.

        Ids already at ``target`` are left alone (a duplicate copy of ``m``,
        a repeated termination); any other status is a protocol violation,
        reported for the first offending id.  Returns the ids that moved —
        the input array itself when every id moves, the common case — and
        writes ``value`` into their ``stamp`` entries.
        """

        ids = np.asarray(
            node_ids if isinstance(node_ids, np.ndarray) else list(node_ids), dtype=np.int64
        )
        if ids.size == 0:
            return ids
        if ids.min() < 0 or ids.max() >= self.n:
            bad = ids[(ids < 0) | (ids >= self.n)][0]
            raise ProtocolViolationError(f"unknown node id {bad}")
        codes = self._codes[ids]
        fresh = codes == source
        if fresh.all():
            moved = ids
        else:
            illegal = ~fresh & (codes != target)
            if illegal.any():
                node_id = int(ids[np.argmax(illegal)])
                raise ProtocolViolationError(
                    violation.format(node=node_id, status=self.status(node_id).value)
                )
            moved = ids[fresh]
        if moved.size:
            self._codes[moved] = target
            stamp[moved] = value
            self._version += 1
        return moved

    def mark_informed(self, node_ids: Iterable[int], slot: int) -> np.ndarray:
        """Transition ``UNINFORMED -> INFORMED``; returns the ids that changed.

        The returned ``int64`` array keeps the input's order (so a sorted
        input, such as ``PhaseResult.newly_informed``, gives a sorted
        result) and leaves out ids that were already informed; when no id
        is left out it is the input array itself.
        """

        return self._move(
            node_ids,
            _UNINFORMED,
            _INFORMED,
            self._informed_at_slot,
            slot,
            "node {node} received m after terminating ({status})",
        )

    def terminate_informed(self, node_ids: Iterable[int], round_index: int) -> None:
        """Transition ``INFORMED -> TERMINATED_INFORMED``."""

        self._move(
            node_ids,
            _INFORMED,
            _TERM_INFORMED,
            self._terminated_at_round,
            round_index,
            "cannot terminate node {node} as informed from status {status}",
        )

    def terminate_uninformed(self, node_ids: Iterable[int], round_index: int) -> None:
        """Transition ``UNINFORMED -> TERMINATED_UNINFORMED`` (the ε-loss path)."""

        self._move(
            node_ids,
            _UNINFORMED,
            _TERM_UNINFORMED,
            self._terminated_at_round,
            round_index,
            "cannot terminate node {node} as uninformed from status {status}",
        )

    def terminate_alice(self, round_index: int) -> None:
        if not self.alice_terminated:
            self.alice_terminated = True
            self.alice_terminated_at_round = round_index

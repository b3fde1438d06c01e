"""Event-driven phase-level execution engine.

:class:`PhaseEngine` executes a phase in bulk with numpy instead of slot by
slot.  It exploits two structural facts about ε-Broadcast (and the baselines):

* within a phase, every device acts independently and identically per slot
  with a fixed probability, and
* the adversary commits to a per-phase :class:`~repro.simulation.phaseplan.JamPlan`.

Protocol send probabilities are ``O(1/n)``, so the transmission *events* of
a phase of ``s`` slots — who transmitted in which slot — number about
``s·|active|/n`` rather than ``|active|·s``.  The engine samples them exactly
and resolves the phase from them and from Carol's sorted jam and spoof
offsets (a plan that jams a whole phase is the interval ``[0, s)``).  No
array of the phase's length is built, so a phase costs what its events and
its listener cohort cost, not what its slots cost.

The topologies differ only in how an event reaches listeners — its
*audience*, a set of rows that each share one list of audible slots:

* over a spatial :class:`~repro.simulation.topology.Topology` an event
  reaches the sender's CSR neighbourhood, and every listener is its own row.
  Gilbert-graph degrees concentrate around ``π r² n`` (arXiv:1312.4861), so
  an event reaches ``O(E[deg])`` listeners;
* on the single-hop channel every event reaches every listener, so the
  listeners that share a jam class (victim or spared) hear the same slots
  and the clique has two rows; an event costs O(1) whatever ``n`` is.

A slot is *good* for a row when it carries exactly one audible payload
frame and nothing else — no nack, decoy, own send or spoof, and no jamming
for that row.  A listener's listen coins on its good slots are independent,
so its first heard delivery is its ``K``-th good slot with
``K ~ Geometric(p_listen)``.  A listener informed in slot ``t`` sends no nack
or decoy after ``t``, which can free good slots for others: the engine
resolves deliveries, drops the events after each listener's delivery slot,
and repeats.  Every pass fixes at least the earliest slot that still
differs, so the fixpoint is the slot engine's sequential outcome.

Costs are exact.  Sends are counted from the events.  A listener listens
with probability ``p_listen`` in each slot of its window (up to its delivery
slot) in which it does not transmit; conditioned on its delivery slot it
heard none of the earlier good slots, so its listening cost is the delivery
slot plus binomial draws over the rest of the window, split into noisy and
quiet slots in request phases.

One documented approximation (validated statistically against
:class:`~repro.simulation.engine.SlotEngine`): a reactive jam plan picks its
slots from the correct devices' sampled events, before informed listeners
fall silent and without Carol's own spoofs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .auth import ALICE_ID
from .jamming import materialize_jam_slots, materialize_spoof_slots
from .network import Network
from .phaseplan import EMPTY_IDS, JamPlan, PhaseKind, PhasePlan, PhaseResult, PhaseRoles
from ..observability.trace import NULL_RECORDER, TraceRecorder, engine_event

__all__ = ["PhaseEngine"]


def _sample_bernoulli_events(
    rng: np.random.Generator, num: int, s: int, p: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Sample the success cells of a ``num × s`` Bernoulli(``p``) grid.

    Returns ``(idx, slots)`` — the row (device) and column (slot) of every
    success, in slot order and by row within a slot.  Exact for every ``p``
    in ``[0, 1]``: walking the grid slot by slot, the successes of a
    Bernoulli process are separated by independent Geometric(``p``) gaps, so
    the success cells are running sums of such gaps.  The cost is ``O(m)``
    in the number ``m`` of successes, whatever the grid's size, and no cell
    is ever drawn twice.
    """

    if num <= 0 or s <= 0 or p <= 0.0:
        return EMPTY_IDS, EMPTY_IDS
    cells = num * s
    mean = cells * p
    chunk = int(mean + 4.0 * math.sqrt(mean) + 16.0)

    def gaps() -> np.ndarray:
        # Any gap past the grid's end is as good as another; the clip keeps
        # the running sums clear of int64 overflow at tiny p.
        drawn = rng.geometric(p, size=chunk)
        np.minimum(drawn, cells + 1, out=drawn)
        return np.cumsum(drawn, out=drawn)

    flat = gaps()
    flat -= 1
    while flat[-1] < cells:
        flat = np.concatenate([flat, gaps() + flat[-1]])
    flat = flat[: np.searchsorted(flat, cells)]
    idx = flat % num
    flat //= num
    return idx, flat


def _cat(*arrays: np.ndarray) -> np.ndarray:
    """Concatenate; an array that is the only non-empty one is not copied."""

    full = [a for a in arrays if a.size]
    if len(full) == 1:
        return full[0]
    return np.concatenate(full) if full else EMPTY_IDS


def _ascending(values: np.ndarray) -> np.ndarray:
    """``values`` sorted; already-sorted input (most event arrays) is not copied."""

    if values.size > 1 and not bool(np.all(values[1:] >= values[:-1])):
        return np.sort(values)
    return values


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending (a sort and an adjacent compare)."""

    values = _ascending(values)
    if values.size > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


def _positions(sorted_ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The index of each ``query`` value in ``sorted_ids``, or -1 if absent."""

    pos = np.searchsorted(sorted_ids, query)
    found = pos < sorted_ids.size
    found[found] = sorted_ids[pos[found]] == query[found]
    return np.where(found, pos, -1)


def _clean_keys(payload: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The sorted keys that occur once in ``payload`` and never in ``other``."""

    payload = _ascending(payload)
    alone = np.ones(payload.size, dtype=bool)
    alone[1:] = payload[1:] != payload[:-1]
    alone[:-1] &= alone[1:]
    clean = payload[alone]
    if other.size:
        clean = clean[_positions(_ascending(other), clean) < 0]
    return clean


class _SlotSet:
    """Sorted slots of one phase: the interval ``[0, prefix)`` plus ``offsets``.

    Carol's jammed and spoofed slots.  A plan that jams a whole phase is a
    bare interval, so it costs no memory at any phase length; every query
    is a comparison or a ``searchsorted``.
    """

    __slots__ = ("offsets", "prefix", "size")

    def __init__(self, offsets: np.ndarray = EMPTY_IDS, prefix: int = 0) -> None:
        self.offsets = offsets
        self.prefix = prefix
        self.size = prefix + int(offsets.size)

    def first(self, k: int) -> "_SlotSet":
        """The ``k`` earliest slots."""

        if k <= self.prefix:
            return _SlotSet(prefix=k)
        return _SlotSet(self.offsets[: k - self.prefix], self.prefix)

    def array(self) -> np.ndarray:
        return np.concatenate([np.arange(self.prefix, dtype=np.int64), self.offsets])

    def contains(self, slots: np.ndarray) -> np.ndarray:
        inside = slots < self.prefix
        if self.offsets.size:
            inside |= _positions(self.offsets, slots) >= 0
        return inside

    def count_le(self, last: np.ndarray) -> np.ndarray:
        """How many of the slots lie in ``[0, last]``, per entry of ``last``."""

        return np.minimum(last + 1, self.prefix) + np.searchsorted(
            self.offsets, last, side="right"
        )

    def union_size(self, busy: np.ndarray) -> int:
        """``|busy ∪ self|`` for sorted, unique ``busy`` slots."""

        if self.size == 0:
            return int(busy.size)
        return int(busy.size) + self.size - int(np.count_nonzero(self.contains(busy)))


_NO_SLOTS = _SlotSet()


class _Clique:
    """Single-hop audience: every event reaches every listener, so the whole
    cohort is one row and a key is just its slot.  A listener's own sends
    are audible to its row as noise already."""

    path = "single-hop"

    def __init__(self, num_listeners: int) -> None:
        self.row_of = np.zeros(num_listeners, dtype=np.int64)
        self.num_rows = 1

    def expand(
        self, cohort: np.ndarray, idx: np.ndarray, slots: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Row keys of every audible event, and the slots Alice hears."""

        return slots, slots

    def own_keys(self, pos: np.ndarray, slots: np.ndarray) -> np.ndarray:
        return EMPTY_IDS


class _Neighbourhoods:
    """Spatial audience: an event reaches the sender's CSR neighbours, and
    each listener is its own row (key ``row·s + slot``)."""

    path = "multihop-sparse"

    def __init__(self, network: Network, listeners: np.ndarray, s: int) -> None:
        self.s = s
        self.alice = network.n
        self.csr = network.topology.neighbor_csr()
        self.row_of = np.arange(listeners.size, dtype=np.int64)
        self.num_rows = listeners.size
        self._row = np.full(network.n + 1, -1, dtype=np.int64)
        self._row[listeners] = self.row_of

    def expand(
        self, cohort: np.ndarray, idx: np.ndarray, slots: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        if idx.size == 0:
            return EMPTY_IDS, EMPTY_IDS
        origins, nbrs = self.csr.expand(cohort[idx])
        pair_slots = slots[origins]
        row = self._row[nbrs]
        hears = row >= 0
        return row[hears] * self.s + pair_slots[hears], pair_slots[nbrs == self.alice]

    def own_keys(self, pos: np.ndarray, slots: np.ndarray) -> np.ndarray:
        # The CSR has no self-loops: add each listener's own sends to its row.
        return pos * self.s + slots


def _kth_slot(
    audience: "_Clique | _Neighbourhoods", keys: np.ndarray, s: int, k: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Per listener, how many of the sorted ``keys`` its row has, and the
    slot of its ``k``-th one (-1 where it has fewer)."""

    row = keys // s
    per_row = np.bincount(row, minlength=audience.num_rows)
    start = np.cumsum(per_row) - per_row
    count = per_row[audience.row_of]
    at = np.full(k.size, -1, dtype=np.int64)
    hit = k <= count
    at[hit] = keys[start[audience.row_of[hit]] + k[hit] - 1] % s
    return count, at


class PhaseEngine:
    """Vectorised phase executor, statistically equivalent to :class:`SlotEngine`."""

    name = "phase"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._rng = network.random_source.stream("fastengine")
        # Telemetry sink for channel-level "engine" events.  Strictly
        # read-only: emission happens after all sampling and charging, reads
        # only already-computed tallies, and is skipped entirely while the
        # default null recorder is installed.
        self.recorder: TraceRecorder = NULL_RECORDER

    def run_phase(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        jam_plan: JamPlan,
        start_slot: int = 0,
    ) -> PhaseResult:
        """Execute one phase in bulk and return its :class:`PhaseResult`."""

        s = plan.num_slots
        if s == 0:
            result = PhaseResult(
                plan=plan, newly_informed=EMPTY_IDS, jammed_slots=0, adversary_spend=0.0
            )
            if self.recorder.enabled:
                self.recorder.record(engine_event("empty", result))
            return result

        network = self.network
        ledger = network.ledger
        topology = network.topology
        rng = self._rng
        uninformed = roles.active_uninformed_ids
        relays = roles.relay_ids
        decoys = roles.decoy_ids
        num_u = uninformed.size

        # ------------------------------------------------------------------ #
        # 1. Transmission events, in slot order                              #
        # ------------------------------------------------------------------ #
        alice_idx = alice_slots = EMPTY_IDS
        if roles.alice_active:
            alice_idx, alice_slots = _sample_bernoulli_events(rng, 1, s, plan.alice_send_prob)
        relay_idx, relay_slots = _sample_bernoulli_events(rng, relays.size, s, plan.relay_send_prob)
        # Relays never listen, so their sends can be paid now.
        if relay_idx.size:
            ledger.charge_many(relays, np.bincount(relay_idx, minlength=relays.size))
        nack_idx, nack_slots = _sample_bernoulli_events(rng, num_u, s, plan.nack_send_prob)
        decoy_idx, decoy_slots = _sample_bernoulli_events(rng, decoys.size, s, plan.decoy_send_prob)
        if decoy_idx.size and nack_idx.size:
            # Half-duplex, mirroring the slot engine: a decoy sender that
            # chose a nack in the same slot keeps the nack.  Device keys
            # ``slot·(n+1) + id`` come out sorted: the events are in slot
            # order and the cohorts are sorted.
            width = network.n + 1
            nack_devices = nack_slots * width + uninformed[nack_idx]
            keep = _positions(nack_devices, decoy_slots * width + decoys[decoy_idx]) < 0
            decoy_idx, decoy_slots = decoy_idx[keep], decoy_slots[keep]
        # The listener position of each decoy event's sender (-1: not listening).
        decoy_pos = _positions(uninformed, decoys)[decoy_idx]

        # ------------------------------------------------------------------ #
        # 2. Adversary actions (jamming + spoofed transmissions)             #
        # ------------------------------------------------------------------ #
        active_slots: Optional[np.ndarray] = None
        if jam_plan.reactive:
            active_slots = _sorted_unique(_cat(alice_slots, relay_slots, nack_slots, decoy_slots))
        jam, spoof, adversary_spend = self._materialize_adversary_actions(
            jam_plan, s, rng, active_slots
        )
        victim = jam_plan.targeting.affects_array(uninformed)
        if topology is None or topology.is_single_hop:
            audience: "_Clique | _Neighbourhoods" = _Clique(num_u)
        else:
            audience = _Neighbourhoods(network, uninformed, s)

        # ------------------------------------------------------------------ #
        # 3. Deliveries: each listener's K-th good slot, to a fixpoint       #
        # ------------------------------------------------------------------ #
        alice_keys, _ = audience.expand(np.array([network.n]), alice_idx, alice_slots)
        relay_keys, alice_hears_relays = audience.expand(relays, relay_idx, relay_slots)
        del relay_idx  # often the phase's largest array
        payload_keys = _cat(alice_keys, relay_keys)
        p_listen = plan.uninformed_listen_prob
        first_heard = None
        if plan.carries_payload and num_u and p_listen > 0:
            first_heard = rng.geometric(p_listen, size=num_u)
        informed_at = np.full(num_u, -1, dtype=np.int64)
        good = np.zeros(num_u, dtype=np.int64)
        while True:
            nack_keys, alice_hears_nacks = audience.expand(uninformed, nack_idx, nack_slots)
            decoy_keys, alice_hears_decoys = audience.expand(decoys, decoy_idx, decoy_slots)
            listening_decoy = decoy_pos >= 0
            # A listener cannot hear the slots it transmits in.
            own_keys = audience.own_keys(
                _cat(nack_idx, decoy_pos[listening_decoy]),
                _cat(nack_slots, decoy_slots[listening_decoy]),
            )
            if first_heard is None:
                break
            clean = _clean_keys(payload_keys, _cat(nack_keys, decoy_keys, own_keys))
            clean = clean[~spoof.contains(clean % s)]
            good, informed_at = _kth_slot(audience, clean, s, first_heard)
            if jam.size and victim.any():
                jam_free = clean[~jam.contains(clean % s)]
                victim_good, victim_at = _kth_slot(audience, jam_free, s, first_heard)
                good = np.where(victim, victim_good, good)
                informed_at = np.where(victim, victim_at, informed_at)
            informed = informed_at >= 0
            # Good slots inside each listener's window.
            good = np.where(informed, first_heard, good)
            if not informed.any():
                break
            # A listener informed in slot t sends nothing after t.
            cutoff = np.where(informed, informed_at, s - 1)
            nack_live = nack_slots <= cutoff[nack_idx]
            decoy_live = ~listening_decoy
            decoy_live[listening_decoy] = (
                decoy_slots[listening_decoy] <= cutoff[decoy_pos[listening_decoy]]
            )
            if nack_live.all() and decoy_live.all():
                break
            nack_idx, nack_slots = nack_idx[nack_live], nack_slots[nack_live]
            decoy_idx, decoy_slots = decoy_idx[decoy_live], decoy_slots[decoy_live]
            decoy_pos = decoy_pos[decoy_live]

        informed_mask = informed_at >= 0
        newly_informed = uninformed[informed_mask]
        delivery_slots = int(_sorted_unique(informed_at[informed_mask]).size)
        busy_slots = jam.union_size(
            _sorted_unique(_cat(alice_slots, relay_slots, nack_slots, decoy_slots, spoof.offsets))
        )

        # ------------------------------------------------------------------ #
        # 4. Listener costs and request-phase noise counts                   #
        # ------------------------------------------------------------------ #
        node_noisy = EMPTY_IDS
        if num_u:
            nack_cost = np.bincount(nack_idx, minlength=num_u)
            own = nack_cost + np.bincount(decoy_pos[listening_decoy], minlength=num_u)
            # Inclusive listening window: a listener informed in slot t
            # stops after t.
            window = np.where(informed_mask, informed_at + 1, s)
            listen_cost = np.zeros(num_u, dtype=np.int64)
            if p_listen > 0:
                if plan.kind is PhaseKind.REQUEST:
                    busy = self._busy_in_window(
                        audience,
                        _cat(payload_keys, nack_keys, decoy_keys, own_keys),
                        s,
                        jam,
                        spoof,
                        victim,
                        window - 1,
                    )
                    node_noisy = rng.binomial(busy - own - good, p_listen)
                    listen_cost = node_noisy + rng.binomial(window - busy, p_listen)
                else:
                    listen_cost = rng.binomial(window - own - good, p_listen)
                listen_cost = listen_cost + informed_mask
            ledger.charge_many(uninformed, listen_cost + nack_cost)

        # ------------------------------------------------------------------ #
        # 5. Alice                                                           #
        # ------------------------------------------------------------------ #
        alice_send_slots = int(alice_slots.size)
        if alice_send_slots:
            ledger.charge_bulk(ledger.alice, float(alice_send_slots))
        alice_noisy = 0
        alice_listen_slots = 0
        if roles.alice_active and plan.alice_listen_prob > 0:
            # Her busy slots include her own sends, in which she cannot listen.
            heard = _sorted_unique(
                _cat(alice_hears_relays, alice_hears_nacks, alice_hears_decoys, spoof.offsets, alice_slots)
            )
            alice_jam = jam if jam_plan.targeting.affects(ALICE_ID) else _NO_SLOTS
            alice_busy = alice_jam.union_size(heard)
            alice_noisy = int(rng.binomial(alice_busy - alice_send_slots, plan.alice_listen_prob))
            alice_listen_slots = alice_noisy + int(rng.binomial(s - alice_busy, plan.alice_listen_prob))
            if alice_listen_slots:
                ledger.charge_bulk(ledger.alice, float(alice_listen_slots))

        # ------------------------------------------------------------------ #
        # 6. Decoy send costs                                                #
        # ------------------------------------------------------------------ #
        if decoy_idx.size:
            ledger.charge_many(decoys, np.bincount(decoy_idx, minlength=decoys.size))

        result = PhaseResult(
            plan=plan,
            newly_informed=newly_informed,
            jammed_slots=jam.size,
            adversary_spend=adversary_spend,
            alice_noisy_heard=alice_noisy,
            node_noisy_heard=node_noisy,
            delivery_slots=delivery_slots,
            busy_slots=busy_slots,
            alice_send_slots=alice_send_slots,
            alice_listen_slots=alice_listen_slots,
            spoofed_transmissions=spoof.size,
        )
        if self.recorder.enabled:
            self.recorder.record(
                engine_event(audience.path, result, jam_victims=int(victim.sum()))
            )
        return result

    # ------------------------------------------------------------------ #
    # Internals                                                           #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _busy_in_window(
        audience: "_Clique | _Neighbourhoods",
        row_keys: np.ndarray,
        s: int,
        jam: _SlotSet,
        spoof: _SlotSet,
        victim: np.ndarray,
        last: np.ndarray,
    ) -> np.ndarray:
        """Per listener, the slots in ``[0, last]`` that carry anything it
        could hear: an audible or own transmission, a spoof, or a jam that
        hits it."""

        row_keys = _sorted_unique(row_keys)
        if spoof.size:
            row_keys = row_keys[~spoof.contains(row_keys % s)]
        base = audience.row_of * s

        def in_window(keys: np.ndarray) -> np.ndarray:
            return np.searchsorted(keys, base + last, side="right") - np.searchsorted(keys, base)

        busy = in_window(row_keys) + spoof.count_le(last)
        if jam.size and victim.any():
            jammed = in_window(row_keys[jam.contains(row_keys % s)])
            busy[victim] += jam.count_le(last[victim]) - jammed[victim]
        return busy

    def _materialize_adversary_actions(
        self,
        jam_plan: JamPlan,
        s: int,
        rng: np.random.Generator,
        active_slots: Optional[np.ndarray],
    ) -> "tuple[_SlotSet, _SlotSet, float]":
        """Materialise jamming and spoofing for one phase under the budget.

        Jams are charged first; spoof truncation drops nack spoofs before
        payload spoofs (arbitrary but deterministic).  ``active_slots`` is
        needed only by reactive plans.  Returns ``(jam, spoof,
        adversary_spend)``; the spoofed slots are disjoint from the jammed
        ones.
        """

        ledger = self.network.ledger
        carol = ledger.carol
        covers_phase = (
            jam_plan.slot_indices is None
            and jam_plan.jam_rate is None
            and not jam_plan.reactive
            and jam_plan.num_jam_slots >= s
        )
        if covers_phase:
            # A count plan for every slot is the interval [0, s): no draw.
            jam = _SlotSet(prefix=s)
        else:
            jam = _SlotSet(materialize_jam_slots(jam_plan, s, rng, active_slots=active_slots))
        # At most her remaining budget, so the whole charge goes through.
        jam = jam.first(int(min(jam.size, np.floor(ledger.remaining(carol)))))
        spend = ledger.charge_bulk(carol, float(jam.size))

        spoof = _NO_SLOTS
        if jam_plan.spoof_payload_slots > 0 or jam_plan.spoof_nack_slots > 0:
            jammed = jam.array()
            spoof_payload = materialize_spoof_slots(
                jam_plan.spoof_payload_slots, s, rng, exclude=jammed
            )
            spoof_nack = materialize_spoof_slots(
                jam_plan.spoof_nack_slots, s, rng, exclude=np.concatenate((jammed, spoof_payload))
            )
            spoof_spend = ledger.charge_bulk(carol, float(len(spoof_payload) + len(spoof_nack)))
            spend += spoof_spend
            total_spoofs = int(spoof_spend)
            keep_payload = min(len(spoof_payload), total_spoofs)
            keep_nack = min(len(spoof_nack), total_spoofs - keep_payload)
            spoof = _SlotSet(
                np.sort(np.concatenate((spoof_payload[:keep_payload], spoof_nack[:keep_nack])))
            )
        return jam, spoof, float(spend)

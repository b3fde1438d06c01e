"""Materialising a :class:`~repro.simulation.phaseplan.JamPlan` into concrete slots.

Both engines share this logic so that a given adversary strategy produces the
same *kind* of attack regardless of which engine executes it:

* explicit ``slot_indices`` are used verbatim (clipped to the phase length);
* a ``jam_rate`` is realised as independent per-slot coin flips;
* a ``num_jam_slots`` count is realised as a uniformly random subset of the
  phase's slots — or, for *reactive* plans, as the earliest slots that carry
  correct-side channel activity (the reactive jammer senses the channel within
  the slot and only spends energy when there is something to disrupt).

Every plan resolves to sorted ``int64`` slot offsets with array operations
only — no per-slot Python — so the cost follows numpy, not Carol's attack
volume.  The random draws (their arguments and their order) are pinned by the
single-hop golden regression for both engines.  The fast engine resolves a
non-reactive count plan that covers its whole phase to the interval
``[0, s)`` without calling in here, and it alone resolves reactive plans
here (the slot engine decides those slot by slot).

Budget capping is applied by the caller (the engines), because only they know
how much of Carol's aggregate budget remains at the moment of each attack.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .phaseplan import JamPlan

__all__ = ["materialize_jam_slots", "materialize_spoof_slots"]


def materialize_jam_slots(
    plan: JamPlan,
    num_slots: int,
    rng: np.random.Generator,
    active_slots: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Return the sorted slot offsets (0-based within the phase) to jam.

    Parameters
    ----------
    plan:
        The adversary's committed plan.
    num_slots:
        Length of the phase.
    rng:
        Random generator used for rate-based and random-subset selection.
    active_slots:
        For reactive plans, the sorted offsets of the slots that carry
        correct-side transmissions.  Required when ``plan.reactive`` is set
        and the plan selects by count or rate.
    """

    if num_slots <= 0:
        return np.empty(0, dtype=np.int64)

    if plan.slot_indices is not None:
        indices = np.asarray(plan.slot_indices, dtype=np.int64)
        if indices.size > 1 and not bool(np.all(indices[1:] > indices[:-1])):
            indices = np.unique(indices)
        lo, hi = np.searchsorted(indices, (0, num_slots))
        return indices[lo:hi]

    if plan.reactive:
        if active_slots is None:
            raise ValueError("reactive jam plans require the phase's active slots")
        if plan.jam_rate is not None:
            keep = rng.random(active_slots.size) < plan.jam_rate
            return active_slots[keep]
        count = min(plan.num_jam_slots, active_slots.size)
        return active_slots[:count]

    if plan.jam_rate is not None:
        mask = rng.random(num_slots) < plan.jam_rate
        return np.flatnonzero(mask)

    count = min(plan.num_jam_slots, num_slots)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(num_slots, size=count, replace=False))


def materialize_spoof_slots(
    count: int,
    num_slots: int,
    rng: np.random.Generator,
    exclude: Iterable[int] | np.ndarray = (),
) -> np.ndarray:
    """Pick ``count`` distinct slots for Byzantine spoofed transmissions.

    ``exclude`` lists slots that should not be chosen (e.g. slots already
    being jammed — jamming and spoofing the same slot would waste energy).
    Duplicates are harmless and entries outside ``[0, num_slots)`` are
    ignored.  The draw is one ``rng.choice`` over the ascending free slots.
    """

    if count <= 0 or num_slots <= 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(exclude, np.ndarray):
        excluded = exclude.astype(np.int64, copy=False)
    else:
        excluded = np.fromiter(exclude, dtype=np.int64)
    # Explicit range filter: a negative index would otherwise wrap around.
    excluded = excluded[(excluded >= 0) & (excluded < num_slots)]
    free = np.ones(num_slots, dtype=bool)
    free[excluded] = False
    candidates = np.flatnonzero(free)
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    chosen = min(count, candidates.size)
    return np.sort(rng.choice(candidates, size=chosen, replace=False))

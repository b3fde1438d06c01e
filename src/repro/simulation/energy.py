"""Energy accounting.

Energy is the central resource of the paper: sending, listening, jamming, or
altering a message each cost one unit, while sleeping is free.  Every party's
expenditure is therefore one counter, and a run's whole accounting is one
array: :class:`LedgerArray` holds a row per party in the Alice-last layout the
topology uses — correct nodes ``0..n-1``, Alice at row ``n`` — plus Carol's
aggregate (herself and her Byzantine devices) at row ``n + 1``.

Budgets are stored per row, but only Carol's binds: her jamming must stop
once her aggregate budget is exhausted (the mechanism Lemma 11 relies on),
so charges to her row are capped.  Every other row merely *records* its
expenditure — budget sufficiency for correct devices is a theorem we check
(:meth:`LedgerArray.overdrafts`), not a constraint we impose.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = ["LedgerArray"]


class LedgerArray:
    """Energy ledger of every party in one run, one numpy row each.

    Parameters
    ----------
    n:
        Number of correct nodes (rows ``0..n-1``).
    node_budget:
        Budget of each correct node.
    alice_budget:
        Alice's budget (row :attr:`alice`).
    carol_budget:
        Carol's aggregate budget (row :attr:`carol`, the only capped row).
        ``math.inf`` disables budget pressure.

    Every send, listen, jam, or spoof slot costs one unit.  The slot engine
    charges one unit at a time through :meth:`charge`; the vectorised engine
    charges Alice and Carol through :meth:`charge_bulk` and whole node
    cohorts through :meth:`charge_many`.
    """

    def __init__(
        self, n: int, node_budget: float, alice_budget: float, carol_budget: float
    ) -> None:
        if n < 0:
            raise ConfigurationError(f"ledger needs a non-negative node count, got {n}")
        budgets = (("node", node_budget), ("alice", alice_budget), ("carol", carol_budget))
        for owner, budget in budgets:
            if budget < 0:
                raise ConfigurationError(f"budget for {owner!r} must be non-negative, got {budget}")
        self.n = n
        self.alice = n
        self.carol = n + 1
        self.budgets = np.full(n + 2, float(node_budget))
        self.budgets[self.alice] = alice_budget
        self.budgets[self.carol] = carol_budget
        self._spent = np.zeros(n + 2, dtype=float)
        # Read-only window on the node rows: totals and per-node costs are
        # read from it without copying the whole spent array.
        self.node_spent = self._spent[:n]
        self.node_spent.setflags(write=False)

    def label(self, row: int) -> str:
        """Owner label of ``row`` for reports and error messages."""

        if row == self.alice:
            return "alice"
        if row == self.carol:
            return "carol"
        return f"node:{row}"

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    def spent(self, row: int) -> float:
        """Total energy ``row`` has spent so far."""

        return float(self._spent[row])

    def remaining(self, row: int) -> float:
        """Budget minus expenditure, floored at 0."""

        return max(float(self.budgets[row]) - float(self._spent[row]), 0.0)

    def node_total(self) -> float:
        """Aggregate expenditure of the correct nodes (no copy)."""

        return float(self.node_spent.sum())

    def overdrafts(self) -> np.ndarray:
        """Per-row overdraft (zeros when every budget held)."""

        return np.maximum(self._spent - self.budgets, 0.0)

    # ------------------------------------------------------------------ #
    # Charges                                                             #
    # ------------------------------------------------------------------ #

    def _affordable(self, row: int, units: float) -> bool:
        budget = float(self.budgets[row])
        return math.isinf(budget) or float(self._spent[row]) + units <= budget + 1e-9

    def _check_units(self, row: int, units: float) -> None:
        if units < 0:
            raise ConfigurationError(
                f"cannot charge negative energy ({units}) to {self.label(row)!r}"
            )

    def charge(self, row: int, units: float = 1.0) -> bool:
        """Charge ``units`` to ``row``.

        Returns ``False`` when Carol's row cannot afford the charge (nothing
        is charged then), ``True`` otherwise.
        """

        self._check_units(row, units)
        if units == 0:
            return True
        if row == self.carol and not self._affordable(row, units):
            return False
        self._spent[row] += units
        return True

    def charge_bulk(self, row: int, units: float) -> float:
        """Charge up to ``units`` to ``row``; returns the units charged.

        Carol's charge is clipped to her remaining budget, so the return is
        less than ``units`` only when her budget binds.
        """

        self._check_units(row, units)
        if units == 0:
            return 0.0
        if row == self.carol and not self._affordable(row, units):
            units = self.remaining(row)
            if units <= 0:
                return 0.0
        self._spent[row] += units
        return units

    def charge_many(self, rows: "ArrayLike", units: "ArrayLike") -> np.ndarray:
        """Charge ``units[i]`` to node row ``rows[i]``, vectorised.

        The array analogue of one :meth:`charge_bulk` per node: node rows
        never cap, so the whole call is one fancy-index addition.  ``rows``
        must be node rows without duplicates (phase cohorts never repeat a
        node).  Returns the per-node units charged.
        """

        row_ids = np.asarray(rows, dtype=np.int64)
        amounts = np.asarray(units, dtype=float)
        if amounts.shape != row_ids.shape:
            raise ConfigurationError(
                f"charge_many needs one unit amount per row: "
                f"{row_ids.shape} rows vs {amounts.shape} units"
            )
        if row_ids.size == 0:
            return amounts.copy()
        if np.any(amounts < 0):
            raise ConfigurationError("cannot charge negative energy to node rows")
        if row_ids.min() < 0 or row_ids.max() >= self.n:
            raise ConfigurationError(f"charge_many only charges node rows 0..{self.n - 1}")
        self._spent[row_ids] += amounts
        return amounts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LedgerArray(n={self.n}, alice={self.spent(self.alice):g}, "
            f"carol={self.spent(self.carol):g}, nodes={self.node_total():g})"
        )

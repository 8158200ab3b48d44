"""``Online_MaxMatch`` — matching-based per-interval scheduling (Section VI).

For the fixed-power special case the interval scheduler builds the
bipartite graph ``G' = ({x_i^{(k)}} ∪ Y, E')`` of the paper: each
registered sensor contributes
``n_i' = min(Γ, |[i'_s, i'_e]|, ⌊P(v_i)/(P'·τ)⌋)`` node copies (we keep
sensors as single capacity-``n_i'`` nodes — a b-matching, equivalent and
cheaper), each with an edge of weight ``r_{i,j}·τ`` to every slot of its
clipped window.  A maximum-weight matching then *is* the optimal
interval schedule.  Theorem 4: ``O(n^{1.5})`` time, ``O(n)`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.matching import max_weight_b_matching
from repro.online.framework import OnlineResult, run_online

__all__ = ["MatchingIntervalScheduler", "online_maxmatch"]


@dataclass
class MatchingIntervalScheduler:
    """Interval scheduler solving a max-weight b-matching.

    Parameters
    ----------
    fixed_power:
        The single transmission power ``P'`` (W).  ``None`` auto-detects
        it per interval from the sub-instance (requiring single-power
        data).
    """

    fixed_power: Optional[float] = None

    def schedule(self, sub_instance: DataCollectionInstance) -> Allocation:
        """Optimal interval schedule via maximum-weight matching."""
        tau = sub_instance.slot_duration
        power = self.fixed_power
        if power is None:
            from repro.core.offline_maxmatch import fixed_power_of

            power = fixed_power_of(sub_instance)
        per_slot_energy = power * tau
        gamma = sub_instance.num_slots
        edges: List[Tuple[int, int, float]] = []
        caps = np.zeros(sub_instance.num_sensors, dtype=np.int64)
        for i, data in enumerate(sub_instance.sensors):
            if data.window is None:
                continue
            affordable = int(np.floor(data.budget / per_slot_energy + 1e-12))
            caps[i] = min(gamma, data.num_slots, affordable)
            if caps[i] <= 0:
                caps[i] = 0
                continue
            slots = data.slot_indices()
            for k in np.flatnonzero(data.rates > 0):
                edges.append((i, int(slots[k]), float(data.rates[k]) * tau))
        result = max_weight_b_matching(edges, caps, gamma)
        owner = np.full(gamma, -1, dtype=np.int64)
        for sensor, slot in result.pairs:
            owner[slot] = sensor
        return Allocation(owner)


def online_maxmatch(
    instance: DataCollectionInstance,
    gamma: int,
    fixed_power: Optional[float] = None,
) -> OnlineResult:
    """Run the full ``Online_MaxMatch`` tour.

    Parameters
    ----------
    instance:
        The tour's DCMP instance (single transmission power).
    gamma:
        Probe-interval length ``Γ`` in slots.
    fixed_power:
        ``P'`` in watts; auto-detected when ``None``.

    Returns
    -------
    OnlineResult
    """
    if fixed_power is None:
        from repro.core.offline_maxmatch import fixed_power_of

        try:
            fixed_power = fixed_power_of(instance)
        except ValueError as err:
            if "no transmittable" not in str(err):
                raise
            # Nothing can ever transmit: run the framework anyway so the
            # message accounting (all-empty intervals) stays meaningful.
            fixed_power = 1.0
    scheduler = MatchingIntervalScheduler(fixed_power=fixed_power)
    return run_online(instance, gamma, scheduler)

"""Linear-programming upper bound on the DCMP optimum.

:func:`dcmp_lp_upper_bound` solves the LP relaxation of the paper's
integer program (Section II.D).  Its optimum upper-bounds the true
optimum, so reporting ``algorithm / LP`` gives a certified lower bound
on the fraction of optimum achieved ("the solutions are fractional of
the optimum" is the paper's closing claim; this makes it quantitative).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry

__all__ = ["dcmp_lp_upper_bound"]


def dcmp_lp_upper_bound(instance: DataCollectionInstance) -> float:
    """Optimal value of the DCMP LP relaxation, in bits.

    Variables ``x_{i,j} ∈ [0, 1]`` over every positive-rate
    (sensor, slot) pair, in the instance's flat pair order; constraints
    (3) per slot and (4) per sensor.
    Solved with HiGHS.  Returns 0 for instances with no transmittable
    pair.
    """
    flat = instance.flat_pairs()
    keep = np.flatnonzero(flat.rates > 0)
    num_vars = len(keep)
    if num_vars == 0:
        return 0.0
    tau = instance.slot_duration
    profits_arr = flat.rates[keep] * tau
    costs_arr = flat.powers[keep] * tau

    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate([flat.slot[keep], t + flat.sensor[keep]])
    cols = np.concatenate([np.arange(num_vars), np.arange(num_vars)])
    data = np.concatenate([np.ones(num_vars), costs_arr])
    a_ub = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsr()
    b_ub = np.concatenate([np.ones(t), instance.budgets_array()])
    registry = get_registry()
    registry.inc("lp.calls")
    registry.set_gauge("lp.num_vars", num_vars)
    with registry.timed("lp.dcmp_bound"):
        res = linprog(
            c=-profits_arr, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
        )
    registry.set_gauge("lp.status", int(res.status))
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    return float(-res.fun)


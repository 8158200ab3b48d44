"""Maximum-weight bipartite b-matching.

The special-case algorithms of Section VI reduce time-slot allocation to
a maximum-weight matching in a bipartite graph whose left nodes are
*copies* of registered sensors (``n_i'`` copies each) and whose right
nodes are time slots.  Copies of one sensor are interchangeable, so the
problem is really a **b-matching**: left node ``i`` may be matched to up
to ``c_i`` right nodes, every right node to at most one left node,
maximising total edge weight.

Two exact solvers, chosen from the input size (no caller picks one):

* :func:`scipy.optimize.linear_sum_assignment` on the dense
  ``copies × right`` matrix (0-weight for non-edges) when that matrix has
  at most :data:`_LSA_MAX_ENTRIES` entries — the small per-interval
  matchings of ``Online_MaxMatch``;
* otherwise the b-matching LP solved with HiGHS dual simplex.  The
  constraint matrix is totally unimodular, so the vertex optimum is
  integral — the whole-tour matchings of ``Offline_MaxMatch``.

The min-cost-flow formulation lives on in the test suite as the
reference both are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.obs import get_registry

__all__ = ["MatchingResult", "max_weight_b_matching"]

#: Edges below this weight are dropped (they cannot improve the matching).
_WEIGHT_EPS = 1e-12

#: Largest dense ``copies × right`` matrix handed to the assignment
#: solver; larger inputs go to the LP.  Measured at fixed power 0.3 W:
#: per-interval matchings reach ~16k entries and solve faster by
#: assignment, whole-tour matchings start at ~150k and solve faster by LP.
_LSA_MAX_ENTRIES = 65_536


@dataclass(frozen=True)
class MatchingResult:
    """A b-matching: ``pairs[k] = (left, right)`` plus the total weight."""

    pairs: Tuple[Tuple[int, int], ...]
    weight: float

    def right_of(self, num_right: int) -> np.ndarray:
        """``(num_right,)`` array mapping right node → left node or -1."""
        out = np.full(num_right, -1, dtype=np.int64)
        for left, right in self.pairs:
            out[right] = left
        return out


def _prepare(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate the inputs; drop non-positive edges and lighter parallels.

    Returns ``(u, v, w, caps)`` arrays, one entry of ``u, v, w`` per
    kept edge, ordered by ``(left, right)``.
    """
    caps = np.asarray(left_capacities, dtype=np.int64)
    if caps.ndim != 1:
        raise ValueError("left_capacities must be 1-D")
    if np.any(caps < 0):
        raise ValueError("left capacities must be >= 0")
    if num_right < 0:
        raise ValueError("num_right must be >= 0")
    if len(edges) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), caps
    arr = np.asarray([(u, v, w) for (u, v, w) in edges], dtype=np.float64)
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    if np.any(u < 0) or np.any(u >= caps.size):
        raise ValueError("edge left endpoint out of range")
    if np.any(v < 0) or np.any(v >= num_right):
        raise ValueError("edge right endpoint out of range")
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    keep = w > _WEIGHT_EPS
    u, v, w = u[keep], v[keep], w[keep]
    key = u * np.int64(num_right) + v
    order = np.lexsort((-w, key))
    key_sorted = key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    sel = order[first]
    return u[sel], v[sel], w[sel], caps


def _effective_copies(u: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per-left copy counts: a left node never needs more copies than it
    has incident edges."""
    return np.minimum(caps, np.bincount(u, minlength=caps.size))


def max_weight_b_matching(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """Compute a maximum-weight bipartite b-matching.

    Parameters
    ----------
    edges:
        ``(left, right, weight)`` triples.  Non-positive-weight edges are
        ignored (they never help a *maximum*-weight matching).  Parallel
        edges are allowed; only the heaviest parallel edge can matter.
    left_capacities:
        ``c_i`` per left node (the paper's ``n_i'`` copy counts).
    num_right:
        Number of right nodes (time slots).

    Returns
    -------
    MatchingResult
        Optimal matching; every right node appears at most once and left
        node ``i`` appears at most ``c_i`` times.  Pairs are sorted.

    Notes
    -----
    Records ``matching.calls`` / ``matching.edges`` counters and a
    ``matching.lsa`` or ``matching.lp`` timer (naming the solver that
    ran) to the :mod:`repro.obs` registry.
    """
    u, v, w, caps = _prepare(edges, left_capacities, num_right)
    if u.size == 0:
        return MatchingResult((), 0.0)
    dense_entries = int(_effective_copies(u, caps).sum()) * num_right
    name, solve = (
        ("lsa", _solve_lsa) if dense_entries <= _LSA_MAX_ENTRIES else ("lp", _solve_lp)
    )
    registry = get_registry()
    registry.inc("matching.calls")
    registry.inc("matching.edges", float(u.size))
    with registry.timed(f"matching.{name}"):
        return solve(u, v, w, caps, num_right)


# ----------------------------------------------------------------------
def _solve_lsa(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, caps: np.ndarray, num_right: int
) -> MatchingResult:
    """Expand left copies and run the Jonker–Volgenant assignment."""
    from scipy.optimize import linear_sum_assignment

    eff_caps = _effective_copies(u, caps)
    total_copies = int(eff_caps.sum())
    if total_copies == 0:
        return MatchingResult((), 0.0)
    copy_owner = np.repeat(np.arange(caps.size), eff_caps)
    first_copy = np.zeros(caps.size, dtype=np.int64)
    first_copy[1:] = np.cumsum(eff_caps)[:-1]
    dense = np.zeros((total_copies, num_right))
    for k in range(u.size):
        i = int(u[k])
        for c in range(int(eff_caps[i])):
            dense[first_copy[i] + c, int(v[k])] = w[k]
    rows, cols = linear_sum_assignment(dense, maximize=True)
    pairs = []
    weight = 0.0
    for r, c in zip(rows, cols):
        if dense[r, c] > _WEIGHT_EPS:
            pairs.append((int(copy_owner[r]), int(c)))
            weight += float(dense[r, c])
    return MatchingResult(tuple(sorted(pairs)), weight)


def _solve_lp(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, caps: np.ndarray, num_right: int
) -> MatchingResult:
    """HiGHS dual simplex on the (totally unimodular) b-matching LP."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    num_left = caps.size
    num_edges = u.size
    # Constraints: per-right <= 1, per-left <= c_i.
    rows = np.concatenate([v, num_right + u])
    cols = np.concatenate([np.arange(num_edges), np.arange(num_edges)])
    data = np.ones(2 * num_edges)
    a_ub = coo_matrix(
        (data, (rows, cols)), shape=(num_right + num_left, num_edges)
    ).tocsr()
    b_ub = np.concatenate([np.ones(num_right), caps.astype(np.float64)])
    res = linprog(
        c=-w,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs-ds",
    )
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"b-matching LP failed: {res.message}")
    x = res.x
    chosen = x > 0.5
    # Vertex solutions of a TU polytope are integral; verify anyway.
    frac = np.abs(x - np.round(x)).max() if x.size else 0.0
    if frac > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(f"LP returned a fractional vertex (max frac {frac:.2e})")
    pairs = [(int(u[k]), int(v[k])) for k in np.flatnonzero(chosen)]
    weight = float(w[chosen].sum())
    return MatchingResult(tuple(sorted(pairs)), weight)

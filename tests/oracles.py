"""Reference oracles for the solver core.

Most functions here are deliberately naive, loop-based
re-implementations of a vectorised production routine.  They exist so
the equivalence suite (:mod:`tests.test_array_equivalence`) can assert
that the numpy forms are *bit-identical* to the scalar semantics they
replaced — same selections, same IEEE-754 accumulation order, same
error behaviour — not merely "close".

:func:`dcmp_lp_upper_bound_oracle` is the per-pair loop that used to
assemble the LP relaxation; it keeps the vectorised assembly honest.
The matching references at the bottom are independent formulations of
Section VI: a successive-shortest-path min-cost flow
(:class:`MinCostFlow`, :func:`b_matching_flow_oracle`) and the paper's
literal node-copies graph G′ (:func:`build_copies_graph`).  The tests
check :func:`repro.core.matching.max_weight_b_matching` and
``Offline_MaxMatch`` against them.

Keep these boring: single code path, plain Python floats, nested loops.
Any cleverness added here defeats their purpose as references.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.allocation import _BUDGET_EPS, UNASSIGNED, Allocation
from repro.core.gap import GapInstance, KnapsackSolver
from repro.core.instance import DataCollectionInstance
from repro.core.matching import MatchingResult, max_weight_b_matching
from repro.core.offline_maxmatch import fixed_power_of

__all__ = [
    "knapsack_few_weights_oracle",
    "local_ratio_gap_oracle",
    "allocation_stats_oracle",
    "dcmp_lp_upper_bound_oracle",
    "MinCostFlow",
    "b_matching_flow_oracle",
    "CopiesGraph",
    "build_copies_graph",
    "maxmatch_via_copies",
]


# ----------------------------------------------------------------------
# Knapsack: exact few-distinct-weights enumeration, one code path
# ----------------------------------------------------------------------
def knapsack_few_weights_oracle(
    profits: Sequence[float], weights: Sequence[float], capacity: float
) -> Tuple[Tuple[int, ...], float, float]:
    """Reference for :func:`repro.core.knapsack.knapsack_few_weights`.

    Returns ``(selected, profit, weight)`` with the production
    semantics: filter to positive-profit affordable items (raising on
    any negative weight), group by weight value (classes ascending,
    members profit-descending with ascending-index ties), take all
    zero-weight items, greedy-fill the largest class, enumerate count
    vectors over the rest in row-major order keeping the earliest
    profit tie, and report the selection index-ascending with
    sequential summation.
    """
    p_all = [float(x) for x in profits]
    w_all = [float(x) for x in weights]
    if len(p_all) != len(w_all):
        raise ValueError("profits and weights must be equal-length")
    idx: List[int] = []
    p: List[float] = []
    w: List[float] = []
    for k, wv in enumerate(w_all):
        if wv < 0.0:
            raise ValueError("weights must be non-negative")
        if p_all[k] > 0.0 and wv <= capacity:
            idx.append(k)
            p.append(p_all[k])
            w.append(wv)
    n = len(idx)
    if n == 0:
        return (), 0.0, 0.0

    groups: Dict[float, List[int]] = {}
    for k in range(n):
        groups.setdefault(w[k], []).append(k)
    base_profit = 0.0
    base_chosen: List[int] = []
    classes: List[Tuple[float, List[int], List[float]]] = []
    for weight_value in sorted(groups):
        members = sorted(groups[weight_value], key=lambda k: -p[k])
        prefix = [0.0]
        acc = 0.0
        for k in members:
            acc += p[k]
            prefix.append(acc)
        if weight_value == 0.0:
            base_profit += acc
            base_chosen.extend(members)
        else:
            classes.append((weight_value, members, prefix))

    chosen = list(base_chosen)
    if classes:
        sizes = [len(members) for _, members, _ in classes]
        greedy_class = max(range(len(sizes)), key=sizes.__getitem__)
        enum = [c for k, c in enumerate(classes) if k != greedy_class]
        g_weight, g_members, g_prefix = classes[greedy_class]
        g_size = len(g_members)
        limits = [
            min(len(members), int(capacity / weight_value + 1e-12))
            for weight_value, members, _ in enum
        ]
        cap_slack = capacity + 1e-12
        best_total = -math.inf
        best_counts: Tuple[int, ...] = tuple(0 for _ in enum)
        best_g = 0
        # product() varies the last factor fastest: row-major order,
        # exactly the production enumeration order (ties keep the
        # earliest combination).
        for counts in itertools.product(*(range(lim + 1) for lim in limits)):
            used = 0.0
            acc = base_profit
            for k, count in enumerate(counts):
                used += count * enum[k][0]
                acc += enum[k][2][count]
            if used <= cap_slack:
                g_count = min(
                    g_size, int(math.floor((capacity - used) / g_weight + 1e-12))
                )
                if g_count < 0:
                    g_count = 0
                total = acc + g_prefix[g_count]
                if total > best_total:
                    best_total = total
                    best_counts = counts
                    best_g = g_count
        for count, (_, members, _) in zip(best_counts, enum):
            chosen.extend(members[:count])
        chosen.extend(g_members[:best_g])

    chosen.sort()
    profit = 0.0
    weight = 0.0
    for k in chosen:
        profit += p[k]
        weight += w[k]
    return tuple(idx[k] for k in chosen), profit, weight


# ----------------------------------------------------------------------
# GAP: scalar local-ratio residual loop
# ----------------------------------------------------------------------
def local_ratio_gap_oracle(
    instance: GapInstance,
    knapsack_solver: KnapsackSolver,
    bin_order: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]], float, int]:
    """Reference for :func:`repro.core.gap.local_ratio_gap`.

    Returns ``(assignment, tentative, profit, residual_updates)``.
    Residuals live in per-bin Python lists; each round subtracts the
    chosen items' positive residuals from every *other* bin containing
    them, one scalar subtraction per occurrence (the quantity the
    ``gap.residual_updates`` counter reports).
    """
    order = (
        list(range(instance.num_bins)) if bin_order is None else list(bin_order)
    )
    if sorted(order) != list(range(instance.num_bins)):
        raise ValueError("bin_order must be a permutation of all bins")
    bins = instance.bins
    residual: List[List[float]] = [b.profits.astype(float).tolist() for b in bins]
    occurrences: Dict[int, List[Tuple[int, int]]] = {}
    for bin_index, b in enumerate(bins):
        for pos, item in enumerate(b.items.tolist()):
            occurrences.setdefault(item, []).append((bin_index, pos))

    tentative: Dict[int, List[int]] = {}
    updates = 0
    for l in order:
        b = bins[l]
        result = knapsack_solver(
            np.asarray(residual[l], dtype=np.float64), b.weights, b.capacity
        )
        chosen = result.selected
        if chosen:
            items_l = b.items.tolist()
            tentative[l] = [items_l[k] for k in chosen]
            for k in chosen:
                delta = residual[l][k]
                if delta > 0.0:
                    for other_bin, pos in occurrences[items_l[k]]:
                        if other_bin != l:
                            residual[other_bin][pos] -= delta
                            updates += 1
        else:
            tentative[l] = []
        residual[l] = [float("-inf")] * len(residual[l])

    taken: set = set()
    assignment: Dict[int, List[int]] = {}
    for l in reversed(order):
        mine = [item for item in tentative[l] if item not in taken]
        assignment[l] = sorted(mine)
        taken.update(mine)

    # Profit under the original profits, accumulated in the same order
    # as production: bins in assignment insertion order, items ascending.
    profit = 0.0
    for l, items in assignment.items():
        b = bins[l]
        lookup = {int(item): k for k, item in enumerate(b.items.tolist())}
        for item in items:
            profit += float(b.profits[lookup[item]])
    return (
        assignment,
        {k: sorted(v) for k, v in tentative.items()},
        profit,
        updates,
    )


# ----------------------------------------------------------------------
# Allocation accounting: scalar sweeps
# ----------------------------------------------------------------------
def allocation_stats_oracle(
    allocation: Allocation, instance: DataCollectionInstance
) -> Tuple[float, List[float], List[float], List[str]]:
    """Reference for the :class:`repro.core.allocation.Allocation`
    accounting methods.

    Returns ``(collected_bits, energy_spent, per_sensor_bits,
    violations)`` computed with per-slot scalar loops and the scalar
    ``instance.profit`` / ``instance.cost`` accessors, matching the
    vectorised methods' accumulation order (slot-ascending) and their
    violation message text exactly.
    """
    n = instance.num_sensors
    if allocation.num_slots != instance.num_slots:
        return (
            0.0,
            [0.0] * n,
            [0.0] * n,
            [
                f"allocation horizon {allocation.num_slots} != "
                f"instance horizon {instance.num_slots}"
            ],
        )
    collected = 0.0
    energy = [0.0] * n
    bits = [0.0] * n
    problems: List[str] = []
    for slot, owner in enumerate(allocation.slot_owner.tolist()):
        if owner == UNASSIGNED:
            continue
        if not (0 <= owner < n):
            problems.append(f"slot {slot}: unknown sensor {owner}")
            continue
        window = instance.window_of(owner)
        if window is None or not (window.start <= slot <= window.end):
            problems.append(f"slot {slot}: outside A(v_{owner}) = {window}")
            continue
        collected += instance.profit(owner, slot)
        energy[owner] += instance.cost(owner, slot)
        bits[owner] += instance.profit(owner, slot)
    budgets = instance.budgets_array().tolist()
    for sensor in range(n):
        if energy[sensor] > budgets[sensor] + _BUDGET_EPS:
            problems.append(
                f"sensor {sensor}: energy {energy[sensor]:.9f} J exceeds "
                f"budget {budgets[sensor]:.9f} J by "
                f"{energy[sensor] - budgets[sensor]:.3e} J"
            )
    return collected, energy, bits, problems


# ----------------------------------------------------------------------
# LP relaxation: per-(sensor, slot) assembly loop
# ----------------------------------------------------------------------
def dcmp_lp_upper_bound_oracle(instance: DataCollectionInstance) -> float:
    """Reference for :func:`repro.core.lp.dcmp_lp_upper_bound`.

    Assembles the same LP with a Python loop over every sensor's window
    and the scalar ``instance.budget_of`` accessor, then solves it with
    the same HiGHS call.  The variable order (sensor-major, slots
    ascending) matches the flat pair arrays, so both forms hand HiGHS
    the identical problem and must return the identical float.
    """
    tau = instance.slot_duration
    profits: List[float] = []
    costs: List[float] = []
    var_sensor: List[int] = []
    var_slot: List[int] = []
    for i, data in enumerate(instance.sensors):
        if data.window is None:
            continue
        slots = data.slot_indices()
        for k in np.flatnonzero(data.rates > 0):
            profits.append(float(data.rates[k]) * tau)
            costs.append(float(data.powers[k]) * tau)
            var_sensor.append(i)
            var_slot.append(int(slots[k]))
    num_vars = len(profits)
    if num_vars == 0:
        return 0.0
    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate(
        [np.asarray(var_slot, dtype=np.int64), t + np.asarray(var_sensor, dtype=np.int64)]
    )
    cols = np.concatenate([np.arange(num_vars), np.arange(num_vars)])
    data = np.concatenate([np.ones(num_vars), np.asarray(costs)])
    a_ub = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsr()
    budgets = np.array([instance.budget_of(i) for i in range(n)])
    b_ub = np.concatenate([np.ones(t), budgets])
    res = linprog(
        c=-np.asarray(profits), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    return float(-res.fun)


# ----------------------------------------------------------------------
# Min-cost max-flow: successive shortest augmenting paths
# ----------------------------------------------------------------------
_INF = float("inf")
#: Paths costlier than -_COST_EPS are considered non-improving.
_COST_EPS = 1e-9


class MinCostFlow:
    """A directed flow network solved by successive shortest paths.

    Nodes are integers ``0 .. num_nodes-1``; edges are added with
    :meth:`add_edge` (a reverse residual edge is created automatically).
    Initial potentials come from one Bellman–Ford (SPFA) pass, so
    negative edge costs (negated profits) are handled exactly; every
    augmentation then runs Dijkstra on reduced costs.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self._head: List[List[int]] = [[] for _ in range(num_nodes)]
        self._to: List[int] = []
        self._cap: List[float] = []
        self._cost: List[float] = []

    def add_edge(self, u: int, v: int, capacity: float, cost: float) -> int:
        """Add ``u → v`` with the given capacity and per-unit cost.

        Returns the edge id (even ids are forward edges; ``id ^ 1`` is
        the residual reverse edge).
        """
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"edge ({u}, {v}) outside node range")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        eid = len(self._to)
        self._head[u].append(eid)
        self._to.append(v)
        self._cap.append(float(capacity))
        self._cost.append(float(cost))
        self._head[v].append(eid + 1)
        self._to.append(u)
        self._cap.append(0.0)
        self._cost.append(-float(cost))
        return eid

    def flow_on(self, edge_id: int) -> float:
        """Current flow on a forward edge (= residual cap of its twin)."""
        if edge_id % 2 != 0:
            raise ValueError("flow_on expects a forward edge id")
        return self._cap[edge_id ^ 1]

    def _initial_potentials(self, source: int) -> List[float]:
        """Bellman–Ford (SPFA) distances from ``source`` over residual
        edges with positive capacity; tolerates negative costs."""
        dist = [_INF] * self.num_nodes
        dist[source] = 0.0
        in_queue = [False] * self.num_nodes
        queue: deque = deque([source])
        in_queue[source] = True
        relaxations = 0
        limit = self.num_nodes * len(self._to) + 1
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            for eid in self._head[u]:
                if self._cap[eid] <= 0:
                    continue
                v = self._to[eid]
                nd = dist[u] + self._cost[eid]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    relaxations += 1
                    if relaxations > limit:
                        raise RuntimeError("negative cycle detected in flow network")
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        return dist

    def _dijkstra(
        self, source: int, potentials: List[float]
    ) -> Tuple[List[float], List[int]]:
        """Shortest reduced-cost distances + predecessor edge ids."""
        dist = [_INF] * self.num_nodes
        pred_edge = [-1] * self.num_nodes
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        visited = [False] * self.num_nodes
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = True
            for eid in self._head[u]:
                if self._cap[eid] <= 0:
                    continue
                v = self._to[eid]
                if visited[v]:
                    continue
                # Reduced costs are >= 0 up to rounding; clamp tiny noise.
                reduced = max(self._cost[eid] + potentials[u] - potentials[v], 0.0)
                nd = d + reduced
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    pred_edge[v] = eid
                    heapq.heappush(heap, (nd, v))
        return dist, pred_edge

    def solve(
        self,
        source: int,
        sink: int,
        max_flow: Optional[float] = None,
        only_negative_paths: bool = False,
    ) -> Tuple[float, float]:
        """Push flow from ``source`` to ``sink``; return ``(flow, cost)``.

        ``max_flow`` stops after that much flow (default: saturate).
        ``only_negative_paths`` stops as soon as the next augmenting path
        would have non-negative *true* cost — the stopping rule that
        turns min-cost flow into *maximum-weight* matching.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        potentials = self._initial_potentials(source)
        if potentials[sink] == _INF:
            return 0.0, 0.0
        # Unreachable nodes keep potential 0; they can never be on a path.
        potentials = [p if p < _INF else 0.0 for p in potentials]
        total_flow = 0.0
        total_cost = 0.0
        remaining = _INF if max_flow is None else float(max_flow)
        while remaining > 0:
            dist, pred_edge = self._dijkstra(source, potentials)
            if dist[sink] == _INF:
                break
            # True path cost = reduced distance + potential difference.
            path_cost = dist[sink] + potentials[sink] - potentials[source]
            if only_negative_paths and path_cost >= -_COST_EPS:
                break
            bottleneck = remaining
            v = sink
            while v != source:
                eid = pred_edge[v]
                bottleneck = min(bottleneck, self._cap[eid])
                v = self._to[eid ^ 1]
            v = sink
            while v != source:
                eid = pred_edge[v]
                self._cap[eid] -= bottleneck
                self._cap[eid ^ 1] += bottleneck
                v = self._to[eid ^ 1]
            total_flow += bottleneck
            total_cost += bottleneck * path_cost
            remaining -= bottleneck
            # Johnson update keeps reduced costs non-negative.
            potentials = [
                p + d if d < _INF else p for p, d in zip(potentials, dist)
            ]
        return total_flow, total_cost


def b_matching_flow_oracle(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """Reference for :func:`repro.core.matching.max_weight_b_matching`.

    Compact min-cost flow source → left (cap ``c_i``) → right (cap 1) →
    sink with edge costs ``-w``, stopped at the first non-improving
    augmenting path.  Non-positive edges are skipped; parallel edges are
    all added (the flow uses the heaviest).
    """
    num_left = len(left_capacities)
    source = num_left + num_right
    sink = source + 1
    net = MinCostFlow(sink + 1)
    for i, cap in enumerate(left_capacities):
        if cap > 0:
            net.add_edge(source, i, float(cap), 0.0)
    kept = [(int(u), int(v), float(w)) for u, v, w in edges if w > 1e-12]
    edge_ids = [net.add_edge(u, num_left + v, 1.0, -w) for u, v, w in kept]
    for j in range(num_right):
        net.add_edge(num_left + j, sink, 1.0, 0.0)
    net.solve(source, sink, only_negative_paths=True)
    pairs = set()
    weight = 0.0
    for (u, v, w), eid in zip(kept, edge_ids):
        if net.flow_on(eid) > 0.5:
            pairs.add((u, v))
            weight += w
    return MatchingResult(tuple(sorted(pairs)), weight)


# ----------------------------------------------------------------------
# Section VI's literal node-copies graph G′
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CopiesGraph:
    """The explicit bipartite graph
    ``G' = ({x_i^{(k)} | x_i ∈ X, 1 ≤ k ≤ n_i'} ∪ Y, E')``.

    ``copy_owner[c]`` is the sensor owning copy node ``c``;
    ``copy_counts`` holds ``n_i'`` per sensor; ``edges`` holds
    ``(copy, slot, r_{i,j}·τ)`` with one edge copy per node copy.
    """

    copy_owner: np.ndarray
    copy_counts: np.ndarray
    edges: Tuple[Tuple[int, int, float], ...]
    num_slots: int

    @property
    def num_copies(self) -> int:
        """Total number of copy nodes ``Σ n_i'``."""
        return int(self.copy_owner.shape[0])

    def to_networkx(self):
        """Export G′ as a :class:`networkx.Graph` (bipartite attribute
        0 = copies, 1 = slots)."""
        import networkx as nx

        g = nx.Graph()
        for c in range(self.num_copies):
            g.add_node(("copy", c), bipartite=0, sensor=int(self.copy_owner[c]))
        for j in range(self.num_slots):
            g.add_node(("slot", j), bipartite=1)
        for c, j, w in self.edges:
            g.add_edge(("copy", c), ("slot", j), weight=w)
        return g


def build_copies_graph(
    instance: DataCollectionInstance,
    fixed_power: Optional[float] = None,
    gamma: Optional[int] = None,
) -> CopiesGraph:
    """Construct G′ exactly as Section VI describes.

    ``n_i' = min(⌊R/(r_s·τ)⌋, |[i_s', i_e']|, ⌊P(v_i)/(P'·τ)⌋)``; the
    first term is ``gamma`` (``None`` omits it, as in the offline
    whole-tour reduction).  Unreachable sensors contribute no copies.
    """
    if fixed_power is None:
        fixed_power = fixed_power_of(instance)
    tau = instance.slot_duration
    per_slot_energy = fixed_power * tau
    copy_counts: List[int] = []
    copy_owner: List[int] = []
    edges: List[Tuple[int, int, float]] = []
    for i, data in enumerate(instance.sensors):
        if data.window is None:
            copy_counts.append(0)
            continue
        count = min(data.num_slots, math.floor(data.budget / per_slot_energy + 1e-12))
        if gamma is not None:
            count = min(count, gamma)
        count = max(count, 0)
        copy_counts.append(count)
        first_copy = len(copy_owner)
        copy_owner.extend([i] * count)
        for k, slot in enumerate(data.slot_indices().tolist()):
            rate = float(data.rates[k])
            if rate > 0:
                for c in range(count):
                    edges.append((first_copy + c, slot, rate * tau))
    return CopiesGraph(
        copy_owner=np.asarray(copy_owner, dtype=np.int64),
        copy_counts=np.asarray(copy_counts, dtype=np.int64),
        edges=tuple(edges),
        num_slots=instance.num_slots,
    )


def maxmatch_via_copies(
    instance: DataCollectionInstance, fixed_power: Optional[float] = None
) -> Allocation:
    """``Offline_MaxMatch`` through the literal G′: every copy is a
    unit-capacity left node of a plain maximum-weight matching."""
    graph = build_copies_graph(instance, fixed_power)
    result = max_weight_b_matching(graph.edges, [1] * graph.num_copies, graph.num_slots)
    owner = np.full(instance.num_slots, -1, dtype=np.int64)
    for copy, slot in result.pairs:
        owner[slot] = int(graph.copy_owner[copy])
    allocation = Allocation(owner)
    allocation.check_feasible(instance)
    return allocation

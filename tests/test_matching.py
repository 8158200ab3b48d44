"""Max-weight bipartite b-matching: the two exact solvers, the size rule
that picks between them, and the min-cost-flow reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import (
    _LSA_MAX_ENTRIES,
    MatchingResult,
    _prepare,
    _solve_lp,
    _solve_lsa,
    max_weight_b_matching,
)
from repro.obs import MetricsRegistry, use_registry
from tests.oracles import b_matching_flow_oracle


def _direct(solver):
    """Run one solver on the prepared edges, bypassing the size rule."""

    def solve(edges, caps, num_right):
        u, v, w, c = _prepare(edges, caps, num_right)
        if u.size == 0:
            return MatchingResult((), 0.0)
        return solver(u, v, w, c, num_right)

    return solve


#: The assignment and LP solvers, plus the min-cost-flow reference.
SOLVERS = {
    "flow": b_matching_flow_oracle,
    "lsa": _direct(_solve_lsa),
    "lp": _direct(_solve_lp),
}
ENGINES = list(SOLVERS)


def check_matching(result, edges, caps, num_right):
    """Structural validity + weight consistency."""
    edge_set = {}
    for u, v, w in edges:
        edge_set[(u, v)] = max(edge_set.get((u, v), 0.0), w)
    left_used = {}
    right_used = set()
    total = 0.0
    for u, v in result.pairs:
        assert (u, v) in edge_set
        assert v not in right_used, f"right node {v} matched twice"
        right_used.add(v)
        left_used[u] = left_used.get(u, 0) + 1
        assert left_used[u] <= caps[u], f"left node {u} over capacity"
        total += edge_set[(u, v)]
    assert result.weight == pytest.approx(total)


def brute_force_matching(edges, caps, num_right):
    """Reference optimum by exhaustive search over right nodes.

    Memoised on the position and the used capacity of the left nodes
    that still have edges further right, so instances whose left nodes
    see a narrow window of right nodes (like sensors' slot windows)
    stay tractable at thousands of copies.
    """
    dedup = {}
    for u, v, w in edges:
        if w > 0:
            dedup[(u, v)] = max(dedup.get((u, v), 0.0), w)
    by_right = {}
    for (u, v), w in dedup.items():
        by_right.setdefault(v, []).append((u, w))
    rights = sorted(by_right)
    last = {}
    for k, v in enumerate(rights):
        for u, _ in by_right[v]:
            last[u] = k
    used = dict.fromkeys(range(len(caps)), 0)
    memo = {}

    def dfs(k):
        if k == len(rights):
            return 0.0
        key = (k, tuple((u, c) for u, c in used.items() if c and last[u] >= k))
        if key not in memo:
            best = dfs(k + 1)  # leave unmatched
            for u, w in by_right[rights[k]]:
                if used[u] < caps[u]:
                    used[u] += 1
                    best = max(best, w + dfs(k + 1))
                    used[u] -= 1
            memo[key] = best
        return memo[key]

    return dfs(0)


def banded_instance(num_left, cap, width, stride, seed):
    """Left node ``i`` sees right nodes ``[i·stride, i·stride + width)``
    with integer weights — the shape of sensors' slot windows."""
    rng = np.random.default_rng(seed)
    num_right = stride * (num_left - 1) + width
    edges = [
        (i, j, float(rng.integers(1, 9)))
        for i in range(num_left)
        for j in range(i * stride, i * stride + width)
    ]
    return edges, [cap] * num_left, num_right


@pytest.mark.parametrize("engine", ENGINES)
class TestEngines:
    """Each solver, called directly, and the flow reference."""

    def test_empty(self, engine):
        result = SOLVERS[engine]([], [1, 1], 3)
        assert result.pairs == () and result.weight == 0.0

    def test_single_edge(self, engine):
        result = SOLVERS[engine]([(0, 0, 2.5)], [1], 1)
        assert result.pairs == ((0, 0),)
        assert result.weight == pytest.approx(2.5)

    def test_capacity_zero_blocks(self, engine):
        result = SOLVERS[engine]([(0, 0, 2.5)], [0], 1)
        assert result.pairs == ()

    def test_prefers_heavy_edge(self, engine):
        edges = [(0, 0, 1.0), (1, 0, 3.0)]
        result = SOLVERS[engine](edges, [1, 1], 1)
        assert result.pairs == ((1, 0),)

    def test_b_matching_capacity(self, engine):
        edges = [(0, 0, 5.0), (0, 1, 4.0), (0, 2, 3.0)]
        result = SOLVERS[engine](edges, [2], 3)
        assert result.weight == pytest.approx(9.0)
        assert len(result.pairs) == 2

    def test_non_positive_weights_ignored(self, engine):
        edges = [(0, 0, -1.0), (0, 1, 0.0), (0, 2, 1.0)]
        result = SOLVERS[engine](edges, [3], 3)
        assert result.pairs == ((0, 2),)

    def test_weight_beats_cardinality(self, engine):
        """Max weight is NOT max cardinality here: the single heavy edge
        conflicts with two light ones."""
        edges = [(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0)]
        result = SOLVERS[engine](edges, [1, 1], 2)
        # The heavy edge (0,0)=10 blocks both light edges (left-0's
        # capacity kills (0,1); right-0 kills (1,0)); 10 > 1+1, so the
        # optimum is the *smaller-cardinality* matching of weight 10.
        assert len(result.pairs) == 1
        assert result.weight == pytest.approx(10.0)
        assert result.weight == pytest.approx(
            brute_force_matching(edges, [1, 1], 2)
        )

    def test_parallel_edges_keep_heaviest(self, engine):
        edges = [(0, 0, 1.0), (0, 0, 7.0), (0, 0, 3.0)]
        result = SOLVERS[engine](edges, [1], 1)
        assert result.weight == pytest.approx(7.0)

    def test_matches_brute_force_random(self, engine):
        rng = np.random.default_rng(0)
        for _ in range(15):
            num_left = int(rng.integers(1, 5))
            num_right = int(rng.integers(1, 6))
            caps = rng.integers(0, 3, num_left).tolist()
            edges = [
                (int(u), int(v), float(rng.uniform(0.1, 10.0)))
                for u in range(num_left)
                for v in range(num_right)
                if rng.random() < 0.6
            ]
            result = SOLVERS[engine](edges, caps, num_right)
            check_matching(result, edges, caps, num_right)
            assert result.weight == pytest.approx(
                brute_force_matching(edges, caps, num_right)
            )


class TestValidation:
    def test_bad_left_endpoint(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(5, 0, 1.0)], [1], 1)

    def test_bad_right_endpoint(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 3, 1.0)], [1], 2)

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 0, 1.0)], [-1], 1)

    def test_nan_weight(self):
        with pytest.raises(ValueError):
            max_weight_b_matching([(0, 0, float("nan"))], [1], 1)


class TestResult:
    def test_right_of(self):
        result = MatchingResult(((0, 1), (2, 3)), 5.0)
        np.testing.assert_array_equal(result.right_of(5), [-1, 0, -1, 2, -1])


@pytest.mark.parametrize(
    "solver, num_left",
    [("lsa", 20), ("lp", 60)],  # 60 · 4 · 305 dense entries > _LSA_MAX_ENTRIES
)
def test_matches_brute_force_across_size_threshold(solver, num_left):
    """The public function picks the solver from the dense-matrix size
    and is optimal on both sides of the threshold."""
    edges, caps, num_right = banded_instance(num_left, 4, 10, 5, seed=num_left)
    assert (num_left * 4 * num_right > _LSA_MAX_ENTRIES) == (solver == "lp")
    registry = MetricsRegistry()
    with use_registry(registry):
        result = max_weight_b_matching(edges, caps, num_right)
    assert registry.timer_stats(f"matching.{solver}").count == 1
    check_matching(result, edges, caps, num_right)
    assert result.weight == brute_force_matching(edges, caps, num_right)


def _random_graph(data, weights):
    num_left = data.draw(st.integers(1, 4))
    num_right = data.draw(st.integers(1, 5))
    caps = [data.draw(st.integers(0, 3)) for _ in range(num_left)]
    edges = []
    for u in range(num_left):
        for v in range(num_right):
            if data.draw(st.booleans()):
                edges.append((u, v, data.draw(weights)))
    return edges, caps, num_right


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_engines_agree_hypothesis(data):
    """Both solvers and the flow reference return the same optimal weight."""
    edges, caps, num_right = _random_graph(data, st.floats(0.1, 10.0))
    results = {
        engine: solve(edges, caps, num_right) for engine, solve in SOLVERS.items()
    }
    weights = {e: r.weight for e, r in results.items()}
    assert weights["flow"] == pytest.approx(weights["lsa"])
    assert weights["flow"] == pytest.approx(weights["lp"])
    for engine, result in results.items():
        check_matching(result, edges, caps, num_right)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pairs_independent_of_edge_order_and_lighter_parallels(data):
    """Shuffling the edges or adding lighter parallel edges changes no
    pair, even among tied weights."""
    edges, caps, num_right = _random_graph(data, st.integers(1, 3).map(float))
    expected = max_weight_b_matching(edges, caps, num_right).pairs
    shuffled = data.draw(st.permutations(edges))
    assert max_weight_b_matching(shuffled, caps, num_right).pairs == expected
    lighter = [
        (u, v, w * data.draw(st.floats(-1.0, 1.0, exclude_max=True)))
        for u, v, w in edges
        if data.draw(st.booleans())
    ]
    padded = data.draw(st.permutations(edges + lighter))
    assert max_weight_b_matching(padded, caps, num_right).pairs == expected

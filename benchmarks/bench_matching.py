"""Ablation A2: the two exact b-matching solvers on both regimes.

:func:`repro.core.matching.max_weight_b_matching` solves by scipy's
assignment solver when the expanded copies × slots matrix has at most
``_LSA_MAX_ENTRIES`` entries and by the HiGHS LP otherwise.  This
benchmark times both solvers on one per-interval instance (an
``Online_MaxMatch`` probe interval) and one whole-tour instance
(``Offline_MaxMatch``) at n = 600, fixed power 0.3 W, asserts they reach
the same optimum, and checks which side of the threshold each instance
falls on.  It reports times and does not assert which solver is faster.
"""

from __future__ import annotations

import pytest

from repro.core.matching import (
    _LSA_MAX_ENTRIES,
    _effective_copies,
    _prepare,
    _solve_lp,
    _solve_lsa,
)
from repro.core.offline_maxmatch import build_matching_edges
from repro.sim.scenario import ScenarioConfig
from repro.utils.intervals import SlotInterval

SOLVERS = {"lsa": _solve_lsa, "lp": _solve_lp}


@pytest.fixture(scope="module")
def scenario():
    return ScenarioConfig(num_sensors=600, fixed_power=0.3).build(seed=7)


def _prepared(instance):
    edges, caps = build_matching_edges(instance, fixed_power=0.3)
    return _prepare(edges, caps, instance.num_slots), instance.num_slots


@pytest.fixture(scope="module")
def instances(scenario):
    tour = scenario.instance()
    middle = tour.num_slots // 2
    interval, _ = tour.restrict(SlotInterval(middle, middle + scenario.gamma - 1))
    return {"interval": _prepared(interval), "tour": _prepared(tour)}


@pytest.fixture(scope="module")
def reference_weights(instances):
    return {
        name: _solve_lp(*prepared, num_right).weight
        for name, (prepared, num_right) in instances.items()
    }


@pytest.mark.parametrize("size", ["interval", "tour"])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_matching_solver(benchmark, instances, reference_weights, solver, size):
    prepared, num_right = instances[size]
    result = benchmark.pedantic(
        lambda: SOLVERS[solver](*prepared, num_right), rounds=3, iterations=1
    )
    assert result.weight == reference_weights[size]


def test_instances_straddle_threshold(instances):
    entries = {
        name: int(_effective_copies(prepared[0], prepared[3]).sum()) * num_right
        for name, (prepared, num_right) in instances.items()
    }
    assert 0 < entries["interval"] <= _LSA_MAX_ENTRIES < entries["tour"]

"""LP relaxation bound."""

import pytest

from repro.core.baselines import greedy_by_profit
from repro.core.exact import brute_force_optimum
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.offline_appro import offline_appro
from repro.sim.scenario import ScenarioConfig
from tests.conftest import make_instance, random_instance
from tests.oracles import dcmp_lp_upper_bound_oracle

# One sensor, no contention, ample budget: LP = sum of profits.
UNCONTENDED = (
    4,
    1.0,
    [{"window": (0, 3), "rates": [1, 2, 3, 4], "powers": [1, 1, 1, 1], "budget": 10.0}],
)
# Budget for exactly 1.5 slots: LP may split fractionally.
FRACTIONAL_BUDGET = (
    2,
    1.0,
    [{"window": (0, 1), "rates": [4.0, 4.0], "powers": [2.0, 2.0], "budget": 3.0}],
)
# Two sensors share the single slot: LP <= max profit, not the sum.
SHARED_SLOT = (
    1,
    1.0,
    [
        {"window": (0, 0), "rates": [5.0], "powers": [1.0], "budget": 9.0},
        {"window": (0, 0), "rates": [3.0], "powers": [1.0], "budget": 9.0},
    ],
)
EMPTY = (3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}])


def test_lp_upper_bounds_brute_force(rng):
    for _ in range(15):
        inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=4)
        opt = brute_force_optimum(inst).collected_bits(inst)
        lp = dcmp_lp_upper_bound(inst)
        assert lp >= opt - 1e-6


def test_lp_tight_on_uncontended_instance():
    assert dcmp_lp_upper_bound(make_instance(*UNCONTENDED)) == pytest.approx(10.0)


def test_lp_respects_budget():
    assert dcmp_lp_upper_bound(make_instance(*FRACTIONAL_BUDGET)) == pytest.approx(6.0)


def test_lp_respects_slot_exclusivity():
    assert dcmp_lp_upper_bound(make_instance(*SHARED_SLOT)) == pytest.approx(5.0)


def test_lp_zero_on_empty_instance():
    assert dcmp_lp_upper_bound(make_instance(*EMPTY)) == 0.0


def test_lp_bounds_all_algorithms(rng):
    for _ in range(10):
        inst = random_instance(rng, num_slots=10, num_sensors=4)
        lp = dcmp_lp_upper_bound(inst)
        for alloc in (offline_appro(inst), greedy_by_profit(inst)):
            assert alloc.collected_bits(inst) <= lp + 1e-6


@pytest.mark.parametrize(
    "spec",
    [UNCONTENDED, FRACTIONAL_BUDGET, SHARED_SLOT, EMPTY],
    ids=["uncontended", "fractional_budget", "shared_slot", "empty"],
)
def test_vectorised_assembly_matches_loop_oracle(spec):
    inst = make_instance(*spec)
    assert dcmp_lp_upper_bound(inst) == dcmp_lp_upper_bound_oracle(inst)


def test_vectorised_assembly_matches_loop_oracle_on_random_instances(rng):
    for _ in range(10):
        inst = random_instance(rng, num_slots=12, num_sensors=5)
        assert dcmp_lp_upper_bound(inst) == dcmp_lp_upper_bound_oracle(inst)


@pytest.mark.parametrize("seed", [7, 5_000_000])
def test_vectorised_assembly_matches_loop_oracle_at_paper_scale(seed):
    inst = ScenarioConfig(num_sensors=600).build(seed=seed).instance()
    assert dcmp_lp_upper_bound(inst) == dcmp_lp_upper_bound_oracle(inst)

import math

import pytest

from gwshot import budgets
from gwshot.budgets import require_count, require_scale


@pytest.mark.parametrize("n,horizon", [(10, 0.0), (800, 1.0)], ids=["zero-horizon", "n800"])
def test_zero_horizon_counts_the_set_up_of_each_path(n, horizon):
    # each replicate counts its n * horizon generations and its set-up
    fits = budgets.ENGINE_GENERATION_BUDGET // (int(n * horizon) + budgets.PATH_SETUP_GENERATIONS)
    require_scale(fits, (n,), horizon=horizon)
    with pytest.raises(ValueError, match="engine budget"):
        require_scale(fits + 1, (n,), horizon=horizon)


@pytest.mark.parametrize(
    "n,horizon",
    [(10**400, 3.0), (10**400, 5e-324), (budgets.PATH_GENERATION_BUDGET // 3 + 1, 3.0)],
    ids=["int-1e400", "int-1e400-denormal-horizon", "one-over"],
)
def test_path_budget_compares_exactly(n, horizon):
    with pytest.raises(ValueError, match="generations per path"):
        require_scale(1, (n,), horizon)


def test_path_budget_admits_its_bound():
    require_scale(1, (budgets.PATH_GENERATION_BUDGET // 3,), 3.0)
    require_scale(1, (budgets.PATH_GENERATION_BUDGET,), 1.0)


@pytest.mark.parametrize("horizon", [-1.0, math.inf, math.nan])
def test_horizon_must_be_finite_and_nonnegative(horizon):
    with pytest.raises(ValueError, match="horizon"):
        require_scale(1, (10,), horizon)


@pytest.mark.parametrize("atoms", [math.inf, math.nan, float(budgets.LIMIT_ATOM_BUDGET)])
def test_atom_budget_refuses_inf_nan_and_the_set_up_over_the_bound(atoms):
    with pytest.raises(ValueError, match="atom budget"):
        require_scale(1, atoms=atoms)


@pytest.mark.parametrize(
    "value", [True, 25.5, 1e6, 0, -1, "3"], ids=["bool", "float", "integral-float", "zero", "negative", "string"]
)
def test_require_count_refuses_what_is_not_a_count(value):
    with pytest.raises(ValueError, match="n must be"):
        require_count("n", value)


def test_require_count_admits_ints_of_any_size():
    require_count("n", 1)
    require_count("n", 10**400)


@pytest.mark.parametrize(
    "ns", [5, 2.5, True, None, {}, ()], ids=["int", "float", "bool", "none", "object", "empty"]
)
def test_ladder_must_be_a_nonempty_list(ns):
    # a number here raised TypeError, not ValueError, on the way to the first n
    with pytest.raises(ValueError, match="ns must be a list"):
        require_scale(1, ns)

"""Transport solver checks: marginals, scaling structure, LAP limit."""

import numpy as np
import pytest

import wproc.sinkhorn as sinkhorn
from wproc.assignment import solve_lap
from wproc.errors import InvalidArgumentError
from wproc.sinkhorn import SinkhornConfig, TransportPlan, sinkhorn_plan


def random_cost(rng, b, scale=10.0):
    x = rng.standard_normal((b, 4))
    y = rng.standard_normal((b, 4))
    d = x[:, None, :] - y[None, :, :]
    return scale * (d * d).sum(axis=2)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(InvalidArgumentError):
        SinkhornConfig(max_iters=0)
    with pytest.raises(InvalidArgumentError):
        SinkhornConfig(tol_marginal=0.0)


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        TransportPlan(np.ones((2, 3)), True, 0.0)
    with pytest.raises(InvalidArgumentError):
        TransportPlan(-np.ones((2, 2)), True, 0.0)


def test_marginals_within_tolerance():
    rng = np.random.default_rng(0)
    for b in (1, 2, 10, 40):
        cost = random_cost(rng, b) if b > 1 else np.array([[3.0]])
        plan = sinkhorn_plan(cost, SinkhornConfig())
        assert plan.converged
        assert plan.marginal_error <= 1e-6
        assert plan.weights.sum() == pytest.approx(1.0, abs=1e-9)
        target = 1.0 / b
        assert np.abs(plan.weights.sum(axis=0) - target).max() <= 1e-6
        assert np.abs(plan.weights.sum(axis=1) - target).max() <= 1e-6


def test_scaling_structure():
    # At a fixed point the plan is diag(u) K diag(v), so log(plan) plus
    # cost/eps must be a rank-one additive field f_i + g_j. Check that
    # all 2x2 minors of that field vanish.
    rng = np.random.default_rng(1)
    cost = random_cost(rng, 12)
    eps = 0.05 * float(np.median(cost))
    plan = sinkhorn_plan(cost, SinkhornConfig(epsilon=eps, max_iters=2000,
                                              tol_marginal=1e-12))
    field = np.log(plan.weights) + cost / eps
    minors = field[:1, :1] + field[1:, 1:] - field[:1, 1:] - field[1:, :1]
    assert np.abs(minors).max() < 1e-6


def test_small_epsilon_approaches_assignment():
    rng = np.random.default_rng(2)
    cost = random_cost(rng, 30)
    eps = 0.001 * float(np.median(cost))
    plan = sinkhorn_plan(cost, SinkhornConfig(epsilon=eps, max_iters=2000))
    assert plan.converged
    _, lap_total = solve_lap(cost)
    got = plan.size * float((plan.weights * cost).sum())
    assert got <= lap_total * 1.01
    # Entropic cost cannot beat the unregularized optimum by more than
    # rounding noise.
    assert got >= lap_total * (1.0 - 1e-9)


def test_large_epsilon_near_uniform():
    rng = np.random.default_rng(3)
    cost = random_cost(rng, 8)
    plan = sinkhorn_plan(cost, SinkhornConfig(epsilon=1e6 * cost.max()))
    b = plan.size
    assert np.abs(plan.weights - 1.0 / (b * b)).max() < 1e-6 / b


def test_constant_cost_gives_uniform_plan():
    cost = np.full((5, 5), 2.5)
    plan = sinkhorn_plan(cost, SinkhornConfig(epsilon=1.0))
    assert np.array_equal(plan.weights, np.full((5, 5), 1.0 / 25.0))
    assert plan.converged


def test_log_domain_agrees_with_linear():
    rng = np.random.default_rng(4)
    cost = random_cost(rng, 15)
    eps = 0.2 * float(np.median(cost))
    cfg = SinkhornConfig(epsilon=eps, tol_marginal=1e-10, max_iters=5000)
    a = sinkhorn_plan(cost, cfg)
    b = sinkhorn._sinkhorn_log(cost, eps, cfg)
    assert np.abs(a.weights - b.weights).max() < 1e-9


def test_adaptive_epsilon_is_median_based():
    rng = np.random.default_rng(5)
    cost = random_cost(rng, 10)
    plan = sinkhorn_plan(cost, SinkhornConfig())
    assert plan.epsilon == pytest.approx(0.05 * float(np.median(cost)))
    with pytest.raises(InvalidArgumentError):
        sinkhorn_plan(np.zeros((3, 3)) - 1.0, SinkhornConfig())


def test_sharp_plan_rounds_to_the_assignment():
    rng = np.random.default_rng(6)
    cost = random_cost(rng, 12)
    perm, _ = solve_lap(cost)
    plan = sinkhorn_plan(cost, SinkhornConfig(epsilon=0.001 * np.median(cost),
                                              max_iters=2000))
    rounded, _ = solve_lap(-plan.weights)
    assert rounded.mapping.tolist() == perm.mapping.tolist()


def test_invariance_to_cost_offset():
    # Adding a constant to the cost rescales both potentials but leaves
    # the optimal coupling unchanged.
    rng = np.random.default_rng(7)
    cost = random_cost(rng, 9)
    eps = 0.1 * float(np.median(cost))
    cfg = SinkhornConfig(epsilon=eps, tol_marginal=1e-10, max_iters=5000)
    a = sinkhorn_plan(cost, cfg)
    b = sinkhorn_plan(cost + 13.0, cfg)
    assert np.abs(a.weights - b.weights).max() < 1e-8


def test_rejects_non_square():
    with pytest.raises(InvalidArgumentError):
        sinkhorn_plan(np.ones((3, 4)), SinkhornConfig(epsilon=1.0))

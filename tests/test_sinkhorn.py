"""Transport solver checks: marginals, scaling structure, LAP limit."""

import numpy as np
import pytest

import wproc.sinkhorn as sinkhorn
from wproc.assignment import solve_lap
from wproc.errors import InvalidArgumentError
from wproc.sinkhorn import TransportPlan, sinkhorn_plan

from oracles import gibbs_kernel, plain_sinkhorn


def random_cost(rng, b, scale=10.0):
    x = rng.standard_normal((b, 4))
    y = rng.standard_normal((b, 4))
    d = x[:, None, :] - y[None, :, :]
    return scale * (d * d).sum(axis=2)


def test_config_validation():
    for eps in (0.0, np.inf):
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            sinkhorn_plan(np.ones((2, 2)), epsilon=eps)


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        TransportPlan(np.ones((2, 3)), True, 0.0)
    with pytest.raises(InvalidArgumentError):
        TransportPlan(-np.ones((2, 2)), True, 0.0)


def test_marginals_within_tolerance():
    rng = np.random.default_rng(0)
    for b in (1, 2, 10, 40):
        cost = random_cost(rng, b) if b > 1 else np.array([[3.0]])
        plan = sinkhorn_plan(cost)
        assert plan.converged
        assert plan.marginal_error <= 1e-6
        assert plan.weights.sum() == pytest.approx(1.0, abs=1e-9)
        target = 1.0 / b
        assert np.abs(plan.weights.sum(axis=0) - target).max() <= 1e-6
        assert np.abs(plan.weights.sum(axis=1) - target).max() <= 1e-6


def test_scaling_structure(monkeypatch):
    # At a fixed point the plan is diag(u) K diag(v), so log(plan) plus
    # cost/eps must be a rank-one additive field f_i + g_j. Check that
    # all 2x2 minors of that field vanish.
    rng = np.random.default_rng(1)
    cost = random_cost(rng, 12)
    eps = 0.05 * float(np.median(cost))
    monkeypatch.setattr(sinkhorn, "_MAX_ITERS", 2000)
    monkeypatch.setattr(sinkhorn, "_TOL_MARGINAL", 1e-12)
    plan = sinkhorn_plan(cost, eps)
    field = np.log(plan.weights) + cost / eps
    minors = field[:1, :1] + field[1:, 1:] - field[:1, 1:] - field[1:, :1]
    assert np.abs(minors).max() < 1e-6


def test_small_epsilon_approaches_assignment(monkeypatch):
    rng = np.random.default_rng(2)
    cost = random_cost(rng, 30)
    eps = 0.001 * float(np.median(cost))
    monkeypatch.setattr(sinkhorn, "_MAX_ITERS", 2000)
    plan = sinkhorn_plan(cost, eps)
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
    plan = sinkhorn_plan(cost, 1e6 * cost.max())
    b = plan.size
    assert np.abs(plan.weights - 1.0 / (b * b)).max() < 1e-6 / b


def test_constant_cost_gives_uniform_plan():
    cost = np.full((5, 5), 2.5)
    plan = sinkhorn_plan(cost, 1.0)
    assert np.array_equal(plan.weights, np.full((5, 5), 1.0 / 25.0))
    assert plan.converged


def test_log_domain_agrees_with_linear(monkeypatch):
    rng = np.random.default_rng(4)
    cost = random_cost(rng, 15)
    eps = 0.2 * float(np.median(cost))
    monkeypatch.setattr(sinkhorn, "_MAX_ITERS", 5000)
    monkeypatch.setattr(sinkhorn, "_TOL_MARGINAL", 1e-10)
    a = sinkhorn_plan(cost, eps)
    b = sinkhorn._sinkhorn_log(cost, eps)
    assert np.abs(a.weights - b.weights).max() < 1e-9


def test_adaptive_epsilon_is_median_based():
    rng = np.random.default_rng(5)
    cost = random_cost(rng, 10)
    plan = sinkhorn_plan(cost)
    assert plan.epsilon == pytest.approx(0.05 * float(np.median(cost)))
    with pytest.raises(InvalidArgumentError):
        sinkhorn_plan(np.zeros((3, 3)) - 1.0)


def test_sharp_plan_rounds_to_the_assignment(monkeypatch):
    rng = np.random.default_rng(6)
    cost = random_cost(rng, 12)
    perm, _ = solve_lap(cost)
    monkeypatch.setattr(sinkhorn, "_MAX_ITERS", 2000)
    plan = sinkhorn_plan(cost, 0.001 * np.median(cost))
    rounded, _ = solve_lap(-plan.weights)
    assert rounded.mapping.tolist() == perm.mapping.tolist()


def test_invariance_to_cost_offset(monkeypatch):
    # Adding a constant to the cost rescales both potentials but leaves
    # the optimal coupling unchanged.
    rng = np.random.default_rng(7)
    cost = random_cost(rng, 9)
    eps = 0.1 * float(np.median(cost))
    monkeypatch.setattr(sinkhorn, "_MAX_ITERS", 5000)
    monkeypatch.setattr(sinkhorn, "_TOL_MARGINAL", 1e-10)
    a = sinkhorn_plan(cost, eps)
    b = sinkhorn_plan(cost + 13.0, eps)
    assert np.abs(a.weights - b.weights).max() < 1e-8


def test_rejects_non_square():
    with pytest.raises(InvalidArgumentError):
        sinkhorn_plan(np.ones((3, 4)), 1.0)


def near_aligned_cost(seed, b=600, d=30, noise=0.05):
    # Squared distances from a point set to a noisy shuffled copy of it:
    # the nearly-an-assignment cost of a late, large-batch aligner step.
    rng = np.random.default_rng(seed)
    scale = 0.9 ** np.arange(d)
    x = rng.standard_normal((b, d)) * scale
    y = x[rng.permutation(b)] + noise * rng.standard_normal((b, d)) * scale
    d2 = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def test_linear_miss_hands_its_potentials_to_newton(monkeypatch):
    cost = near_aligned_cost(3)
    eps = 0.05 * float(np.median(cost))
    assert (cost.max() - cost.min()) / eps <= sinkhorn._LINEAR_DOMAIN_SPAN
    calls = {"newton": 0, "lse_cols": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sinkhorn, "_newton_step",
                        counted("newton", sinkhorn._newton_step))
    monkeypatch.setattr(sinkhorn, "_lse_cols", counted("lse_cols", sinkhorn._lse_cols))
    plan = sinkhorn_plan(cost, eps)
    assert plan.converged
    assert plan.marginal_error <= sinkhorn._TOL_MARGINAL
    # Every linear sweep missed the tolerance, then only Newton steps
    # ran: no ladder stage and no log-domain sweep.
    assert calls["lse_cols"] == 0
    assert calls["newton"] >= 1
    assert plan.iterations == sinkhorn._MAX_ITERS + calls["newton"]
    cold = sinkhorn._sinkhorn_log(cost, eps)
    assert cold.converged
    # Both plans meet the marginal tolerance of the same problem, and no
    # entry (each near 1/b = 1.7e-3) differs by more than that tolerance.
    assert np.abs(plan.weights - cold.weights).max() <= sinkhorn._TOL_MARGINAL


def late_batch_cost(seed, n=2000, b=600, d=300, noise=0.7):
    # Squared distances between two independent b-row batches of unit
    # rows, about a third of them noisy copies of each other: the plan of
    # a late bli-d300 aligner step (row minima 0.3-1.4, median 2).
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * (1.0 + np.arange(d)) ** -0.5
    x /= np.linalg.norm(x, axis=1)[:, None]
    y = x + noise / np.sqrt(d) * rng.standard_normal((n, d))
    y /= np.linalg.norm(y, axis=1)[:, None]
    xb = x[rng.choice(n, b, replace=False)]
    yb = y[rng.choice(n, b, replace=False)]
    return np.maximum(2.0 - 2.0 * (xb @ yb.T), 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_up_sweeps_keep_the_plain_loop_bytes(seed):
    cost = random_cost(np.random.default_rng(seed), 40)
    eps = 0.5 * float(np.median(cost))
    plan = sinkhorn_plan(cost, eps)
    assert plan.iterations <= sinkhorn._SOR_WARMUP
    weights, sweeps = plain_sinkhorn(cost, eps, sinkhorn._TOL_MARGINAL,
                                     sinkhorn._SOR_WARMUP)
    assert plan.iterations == sweeps
    assert plan.weights.tobytes() == weights.tobytes()


def test_over_relaxed_late_plan_converges_in_the_linear_loop(monkeypatch):
    # The plain loop misses the tolerance on this cost after all
    # _MAX_ITERS sweeps and needs a Newton step; the over-relaxed sweeps
    # meet it on their own.
    def must_not_run(*args):
        raise AssertionError("the linear loop handed off")

    monkeypatch.setattr(sinkhorn, "_newton_step", must_not_run)
    monkeypatch.setattr(sinkhorn, "_sinkhorn_log", must_not_run)
    plan = sinkhorn_plan(late_batch_cost(1))
    assert plan.converged
    assert plan.marginal_error <= sinkhorn._TOL_MARGINAL
    assert plan.iterations < sinkhorn._MAX_ITERS


@pytest.mark.parametrize("omega, cold", [(1.99, False), (3.0, True)])
def test_a_bad_relaxation_falls_back_to_a_converged_plan(monkeypatch, omega, cold):
    # omega 1.99 stalls the loop, which hands its potentials to Newton;
    # omega 3 makes the scalings overflow, which starts over in the log
    # domain.  Either way the plan meets the tolerance.
    monkeypatch.setattr(sinkhorn, "_SOR_OMEGA", omega)
    starts = []
    log_solver = sinkhorn._sinkhorn_log

    def spy(cost, eps, warm=None):
        starts.append(warm is None)
        return log_solver(cost, eps, warm)

    monkeypatch.setattr(sinkhorn, "_sinkhorn_log", spy)
    plan = sinkhorn_plan(late_batch_cost(1))
    assert starts == [cold]
    assert plan.converged
    assert plan.marginal_error <= sinkhorn._TOL_MARGINAL
    target = 1.0 / plan.size
    assert np.abs(plan.weights.sum(axis=0) - target).max() <= sinkhorn._TOL_MARGINAL
    assert np.abs(plan.weights.sum(axis=1) - target).max() <= sinkhorn._TOL_MARGINAL


def test_underflowing_kernel_starts_over_cold(monkeypatch):
    rng = np.random.default_rng(8)
    cost = random_cost(rng, 12)
    eps = 0.05 * float(np.median(cost))
    # Column 0 sits so far above the minimum that its kernel column is
    # exactly zero once the linear domain is allowed at this span.
    cost[:, 0] += 1000.0 * eps
    monkeypatch.setattr(sinkhorn, "_LINEAR_DOMAIN_SPAN", np.inf)
    starts = []
    log_solver = sinkhorn._sinkhorn_log

    def spy(cost, eps, warm=None):
        starts.append(warm)
        return log_solver(cost, eps, warm)

    monkeypatch.setattr(sinkhorn, "_sinkhorn_log", spy)
    plan = sinkhorn_plan(cost, eps)
    assert starts == [None]
    assert plan.converged
    assert plan.iterations <= sinkhorn._MAX_ITERS


def test_kernel_keeps_the_plain_expression_bits():
    rng = np.random.default_rng(40)
    for cost in (random_cost(rng, 30), 1e3 + random_cost(rng, 9),
                 -random_cost(rng, 12), np.array([[2.5]])):
        eps = 0.05 * float(np.abs(cost).mean())
        got = sinkhorn._gibbs_kernel(cost, cost.min(), eps)
        assert got.tobytes() == gibbs_kernel(cost, eps).tobytes()


@pytest.mark.parametrize("b", [1, 2, 3, 8, 41, 60])
def test_adaptive_epsilon_is_the_numpy_median_bit_for_bit(b):
    # b^2 entries: odd for odd b, even for even b.  The integer costs
    # tie at the middle.
    rng = np.random.default_rng(41)
    for cost in (random_cost(rng, b), rng.integers(1, 4, (b, b)).astype(float),
                 np.full((b, b), 0.7)):
        got = sinkhorn._resolve_epsilon(cost, None)
        assert got == 0.05 * float(np.median(cost))


def test_handed_off_plan_builds_its_exponents_in_place():
    # The log-domain plans and Newton candidates are built in one b x b
    # array each and the Hessian is freed before the line search; the
    # step used to peak at 7 b x b arrays of traced memory.
    import tracemalloc

    cost = near_aligned_cost(3)
    eps = 0.05 * float(np.median(cost))
    tracemalloc.start()
    try:
        plan = sinkhorn_plan(cost, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.handed_off and plan.converged
    assert peak <= 5.5 * cost.nbytes

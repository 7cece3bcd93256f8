"""Relaxation solver: gradient oracle, feasibility, recovery power."""

import numpy as np
import pytest

import wproc.assignment as assignment
import wproc.qap_init as qap_init
from wproc.assignment import max_trace_matching, reduced_cost, solve_lap
from wproc.errors import InvalidArgumentError
from oracles import fw_gradient, fw_objective
from wproc.qap_init import GramPair, build_grams, extract_q0, fw_solve


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_doubly_stochastic(rng, m, sweeps=200):
    # Sinkhorn-scale a positive matrix; plenty for a feasible test point.
    a = rng.uniform(0.5, 2.0, (m, m))
    for _ in range(sweeps):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
    return a / a.sum() * m / m


def isomorphic_instance(rng, m, d, shuffle=True):
    x = rng.standard_normal((m, d))
    r = random_orthogonal(rng, d)
    perm = rng.permutation(m) if shuffle else np.arange(m)
    y = x[perm] @ r
    return x, y, perm, r


def test_gram_pair_validation():
    with pytest.raises(InvalidArgumentError):
        GramPair(x=np.eye(3), y=np.eye(2))


def test_build_grams_shapes_and_bounds():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((12, 3))
    g = build_grams(x, y, 8)
    assert g.size == 8
    assert np.allclose(g.kx, x[:8] @ x[:8].T, atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        build_grams(x, y, 11)
    with pytest.raises(InvalidArgumentError):
        build_grams(x, y, 0)


def test_objective_zero_iff_isomorphic_permutation():
    rng = np.random.default_rng(1)
    x, y, perm, _ = isomorphic_instance(rng, 12, 5)
    g = build_grams(x, y, 12)
    # P[i, j] couples x row i with y row j; y[k] = x[perm[k]] means the
    # zero-residual vertex maps i = perm[k] to k.
    p = np.zeros((12, 12))
    p[perm, np.arange(12)] = 1.0
    assert fw_objective(g, p) < 1e-20
    assert fw_objective(g, np.eye(12)) > 1.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 4))
    y = rng.standard_normal((9, 4))
    g = build_grams(x, y, 9)
    p = random_doubly_stochastic(rng, 9)
    grad = fw_gradient(g, p)
    h = 1e-6
    for _ in range(25):
        i, j = rng.integers(0, 9, 2)
        e = np.zeros((9, 9))
        e[i, j] = h
        fd = (fw_objective(g, p + e) - fw_objective(g, p - e)) / (2 * h)
        assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-7)


def test_iterates_feasible_and_trace_monotone():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 6))
    y = rng.standard_normal((20, 6))
    g = build_grams(x, y, 20)
    plan, trace = fw_solve(g, max_iters=60)
    assert np.all(np.diff(trace) <= 1e-10)
    w = plan.weights * plan.size
    assert np.abs(w.sum(axis=0) - 1.0).max() < 1e-8
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-8
    assert w.min() >= 0.0


def test_noise_free_recovery():
    # An isomorphic pair is recovered through the relaxation alone.
    rng = np.random.default_rng(4)
    x, y, perm, r = isomorphic_instance(rng, 60, 8)
    g = build_grams(x, y, 60)
    plan, trace = fw_solve(g, max_iters=120)
    got, _ = solve_lap(-plan.weights)
    # Plan rows couple x indices to y indices; truth maps x row perm[k]
    # to y row k.
    want = np.empty(60, dtype=np.int64)
    want[perm] = np.arange(60)
    acc = float((got.mapping == want).mean())
    assert acc >= 0.99
    assert trace[-1] <= 1e-10 * trace[0]
    q0 = extract_q0(x, y, plan)
    assert np.linalg.norm(q0.q - r) < 1e-6


def test_gap_tolerance_stops_early():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 4))
    y = rng.standard_normal((15, 4))
    g = build_grams(x, y, 15)
    loose, _ = fw_solve(g, max_iters=500, gap_tol=1e30)
    assert loose.converged
    assert loose.iterations <= 1
    tight, _ = fw_solve(g, max_iters=3, gap_tol=1e-300)
    assert not tight.converged
    assert tight.iterations == 3


def test_solve_from_uniform_start_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((12, 3))
    g = build_grams(x, y, 12)
    p1, t1 = fw_solve(g, max_iters=40)
    p2, t2 = fw_solve(g, max_iters=40)
    assert np.array_equal(p1.weights, p2.weights)
    assert t1 == t2


def test_extract_q0_rejects_uniform_plan():
    # The uniform coupling collapses every barycenter to the mean, which
    # makes the fit degenerate; the error must say so rather than return
    # an arbitrary map.
    from wproc.errors import DegenerateFitError
    from wproc.sinkhorn import TransportPlan

    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((10, 3))
    plan = TransportPlan(np.full((10, 10), 0.01), True, 0.0)
    with pytest.raises(DegenerateFitError):
        extract_q0(x, y, plan)


def test_fw_solve_validates_its_settings():
    g = build_grams(np.eye(3), np.eye(3), 3)
    with pytest.raises(InvalidArgumentError, match="max_iters"):
        fw_solve(g, max_iters=0)
    with pytest.raises(InvalidArgumentError, match="gap_tol"):
        fw_solve(g, gap_tol=-1.0)


def test_vertices_minimize_the_raw_gradient(monkeypatch):
    # The oracle gets the gradient minus entropic dual potentials; each
    # vertex must still be the exact assignment on the gradient itself.  A run capped at k
    # iterations picks its last vertex at the iterate that the run
    # capped at k - 1 returns.
    rng = np.random.default_rng(12)
    m = 30
    g = GramPair(rng.standard_normal((m, 5)), rng.standard_normal((m, 5)))
    picked = []

    def record(score):
        perm = max_trace_matching(score)
        picked.append(perm.mapping.tolist())
        return perm

    monkeypatch.setattr(qap_init, "max_trace_matching", record)
    p = np.full((m, m), 1.0 / m)
    for k in range(1, 9):
        picked.clear()
        plan, _ = fw_solve(g, max_iters=k, gap_tol=1e-300)
        assert len(picked) == k
        want, _ = solve_lap(fw_gradient(g, p))
        assert picked[-1] == want.mapping.tolist()
        p = plan.weights * m


def crowded_cost(rng, m):
    # Low rank plus a little noise: after column reduction the row minima
    # of such a cost pile up on a few columns, as on the FW gradients.
    a = rng.standard_normal((m, 3)) @ rng.standard_normal((3, m))
    cost = a + 1e-3 * rng.standard_normal((m, m))
    assert len(set((cost - cost.min(axis=0)).argmin(axis=1).tolist())) <= m // 4
    return cost


COSTS = {
    "gaussian": lambda rng: rng.standard_normal((40, 40)),
    "uniform-m7": lambda rng: rng.uniform(0.0, 1.0, (7, 7)),
    # Far from zero: the kernel must be shifted by min C before exp.
    "offset": lambda rng: 1e3 + rng.standard_normal((30, 30)),
    "negative-1e6": lambda rng: -1e6 * rng.uniform(1.0, 2.0, (25, 25)),
    "crowded": lambda rng: crowded_cost(rng, 200),
    "fw-gradient": lambda rng: fw_gradient(
        build_grams(rng.standard_normal((80, 6)), rng.standard_normal((80, 6)), 80),
        np.full((80, 80), 1.0 / 80)),
}


def neighbour_potential(rng, cost):
    # The column potential of a nearby cost, as the previous Frank-Wolfe
    # gradient hands over.
    span = cost.max() - cost.min()
    return reduced_cost(cost + 1e-2 * span * rng.standard_normal(cost.shape))[1]


# Warm column potentials: a good one, a stale one from an unrelated cost
# of the same size, garbage, and one huge entry.
WARM = {
    "neighbour": neighbour_potential,
    "stale": lambda rng, cost: reduced_cost(rng.standard_normal(cost.shape))[1],
    "garbage": lambda rng, cost: 1e6 * rng.standard_normal(cost.shape[1]),
    "huge-entry": lambda rng, cost: np.where(np.arange(cost.shape[1]) == 3,
                                             1e12, 0.0),
}


def starts(ids):
    """(id, warm) for each id: cold under the id itself, then each warm start."""
    for case in ids:
        yield pytest.param(case, None, id=case)
        for name, warm in WARM.items():
            yield pytest.param(case, warm, id=f"{case}-{name}")


def reduce_from(monkeypatch, rng, cost, warm):
    """reduced_cost cold, or from warm(rng, cost) with no cold fallback."""
    if warm is None:
        return reduced_cost(cost)
    g = warm(rng, cost)
    monkeypatch.setattr(assignment, "_cold_potentials", None)
    return reduced_cost(cost, g)


@pytest.mark.parametrize("case, warm", starts(COSTS))
def test_reduced_cost_keeps_the_optimal_assignment(monkeypatch, case, warm):
    rng = np.random.default_rng(20)
    cost = COSTS[case](rng)
    reduced, g = reduce_from(monkeypatch, rng, cost, warm)
    assert np.isfinite(reduced).all() and np.isfinite(g).all()
    want, _ = solve_lap(cost)
    got, _ = solve_lap(reduced)
    assert got.mapping.tolist() == want.mapping.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_warm_potential_falls_back_to_cold(bad):
    cost = crowded_cost(np.random.default_rng(24), 200)
    g = np.zeros(200)
    g[17] = bad
    cold, g_cold = reduced_cost(cost)
    warm, g_warm = reduced_cost(cost, g)
    assert warm.tobytes() == cold.tobytes()
    assert g_warm.tobytes() == g_cold.tobytes()


def test_reduced_cost_of_a_constant_cost_is_the_cost():
    cost = np.full((5, 5), -2.5)
    reduced, _ = reduced_cost(cost)
    assert np.array_equal(reduced, cost)
    # A copy: the caller may overwrite the reduced cost.
    assert reduced is not cost
    assert np.array_equal(reduced_cost(np.array([[3.0]]))[0], [[3.0]])


def test_single_row_relaxation_converges():
    rng = np.random.default_rng(21)
    g = build_grams(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)), 1)
    plan, trace = fw_solve(g)
    assert plan.converged
    assert plan.weights.tolist() == [[1.0]]
    assert len(trace) == 1


@pytest.mark.parametrize("sign, warm", starts(["1.0", "-1.0"]))
def test_reduced_cost_with_one_huge_entry(monkeypatch, sign, warm):
    # A span of 1e12 puts epsilon near 3e9.  Every kernel entry must stay
    # normal: with the huge entry below the rest, all but one entry sit
    # at the far end of the kernel's range.
    rng = np.random.default_rng(22)
    cost = rng.uniform(0.0, 1.0, (12, 12))
    cost[4, 9] += float(sign) * 1e12
    reduced, _ = reduce_from(monkeypatch, rng, cost, warm)
    assert np.isfinite(reduced).all()
    _, total = solve_lap(cost)
    got, _ = solve_lap(reduced)
    got_total = float(cost[np.arange(12), got.mapping].sum())
    assert got_total == pytest.approx(total, rel=1e-12, abs=1e-9)


def test_running_gradient_tracks_the_oracle(monkeypatch):
    # fw_solve updates its gradient along each segment instead of forming
    # it from P.  At every checkpoint k, the gradient handed to the oracle
    # in iteration k + 1 is the gradient at the P that a run capped at k
    # iterations returns, <grad, P> is twice the traced objective, and
    # that P is doubly stochastic.
    rng = np.random.default_rng(23)
    m = 60
    g = GramPair(rng.standard_normal((m, 5)), rng.standard_normal((m, 5)))
    grads = []

    def record(cost, pot=None):
        grads.append(cost.copy())
        return reduced_cost(cost, pot)

    monkeypatch.setattr(qap_init, "reduced_cost", record)
    plan, trace = fw_solve(g, max_iters=300, gap_tol=1e-300)
    assert plan.iterations == 300
    running = grads[:300]
    for k in (0, 1, 2, 3, 10, 30, 100, 200, 299):
        p = np.full((m, m), 1.0 / m)
        if k:
            capped, _ = fw_solve(g, max_iters=k, gap_tol=1e-300)
            p = capped.weights * m
        want = fw_gradient(g, p)
        scale = np.abs(want).max()
        assert np.abs(running[k] - want).max() <= 1e-12 * scale
        assert float((want * p).sum()) == pytest.approx(2.0 * trace[k], rel=1e-12)
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
    w = plan.weights * m
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

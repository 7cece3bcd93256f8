"""Relaxation solver: gradient oracle, feasibility, recovery power."""

import numpy as np
import pytest

import wproc.qap_init as qap_init
from wproc.assignment import max_trace_matching, solve_lap
from wproc.errors import InvalidArgumentError
from oracles import fw_gradient, fw_objective
from wproc.qap_init import FwConfig, GramPair, build_grams, extract_q0, fw_solve


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
    plan, trace = fw_solve(g, FwConfig(max_iters=60))
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
    plan, trace = fw_solve(g, FwConfig(max_iters=120))
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
    loose, _ = fw_solve(g, FwConfig(max_iters=500, gap_tol=1e30))
    assert loose.converged
    assert loose.iterations <= 1
    tight, _ = fw_solve(g, FwConfig(max_iters=3, gap_tol=1e-300))
    assert not tight.converged
    assert tight.iterations == 3


def test_solve_from_uniform_start_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((12, 3))
    g = build_grams(x, y, 12)
    p1, t1 = fw_solve(g, FwConfig(max_iters=40))
    p2, t2 = fw_solve(g, FwConfig(max_iters=40))
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


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        FwConfig(max_iters=0)
    with pytest.raises(InvalidArgumentError):
        FwConfig(gap_tol=-1.0)


def test_vertices_minimize_the_raw_gradient(monkeypatch):
    # The oracle gets column-reduced costs; each vertex must still be the
    # exact assignment on the gradient itself.  A run capped at k
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
        plan, _ = fw_solve(g, FwConfig(max_iters=k, gap_tol=1e-300))
        assert len(picked) == k
        want, _ = solve_lap(fw_gradient(g, p))
        assert picked[-1] == want.mapping.tolist()
        p = plan.weights * m

"""Stochastic alignment loop: step math, schedule, determinism."""

import numpy as np
import pytest

import wproc.aligner as aligner_mod
import wproc.sinkhorn as sinkhorn_mod
from oracles import permutation_matrix, squared_distances
from wproc.aligner import AlignmentState, align, align_step
from wproc.assignment import max_trace_matching, solve_lap
from wproc.errors import DegenerateProjectionError, InvalidArgumentError
from wproc.linalg import OrthogonalMap, project_orthogonal
from wproc.rng import PortableRng
from wproc.sinkhorn import sinkhorn_plan


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("kwargs, message", [
    (dict(total_iters=0), "total_iters must be at least 1"),
    (dict(batch_size_initial=1), "batch size must be at least 2"),
    (dict(step_size=0.0), "step_size must be finite and positive"),
    (dict(step_size=float("nan")), "step_size must be finite and positive"),
    (dict(step_size=float("inf")), "step_size must be finite and positive"),
    (dict(matcher="greedy"), "matcher must be auto, hungarian or sinkhorn"),
    (dict(sinkhorn_eps=0.0), "sinkhorn_eps must be finite and positive"),
    (dict(sinkhorn_eps=float("inf")), "sinkhorn_eps must be finite and positive"),
    (dict(sample_pool=1), "sample_pool must be at least 2"),
])
def test_argument_validation(kwargs, message):
    x = np.random.default_rng(0).standard_normal((600, 3))
    q0 = OrthogonalMap(q=np.eye(3))
    with pytest.raises(InvalidArgumentError, match=message):
        align(x, x, q0, **kwargs)
    if not {"total_iters", "batch_size_initial", "sample_pool"} & set(kwargs):
        with pytest.raises(InvalidArgumentError, match=message):
            align_step(x[:4], x[:4], AlignmentState(q=q0, iteration=0), **kwargs)


def test_hungarian_step_matches_manual_reconstruction():
    rng = np.random.default_rng(0)
    b, d = 12, 4
    x = rng.standard_normal((b, d))
    y = rng.standard_normal((b, d))
    q0 = OrthogonalMap(q=random_orthogonal(rng, d))
    state = align_step(x, y, AlignmentState(q=q0, iteration=0), step_size=0.7,
                       matcher="hungarian")

    perm = max_trace_matching((x @ q0.q) @ y.T)
    matched = y[perm.mapping]
    grad = -2.0 * (x.T @ matched)
    alpha = 0.7 * d / (2.0 * b)
    want_q = project_orthogonal(q0.q - alpha * grad).q
    assert np.array_equal(state.q.q, want_q)

    diff = x @ q0.q - matched
    want_loss = float((diff * diff).sum()) / b
    assert state.loss_history == ((1, want_loss),)


def test_sinkhorn_step_matches_manual_reconstruction(monkeypatch):
    rng = np.random.default_rng(1)
    b, d = 10, 3
    x = rng.standard_normal((b, d))
    y = rng.standard_normal((b, d))
    q0 = OrthogonalMap(q=np.eye(d))
    monkeypatch.setattr(sinkhorn_mod, "_MAX_ITERS", 500)
    monkeypatch.setattr(sinkhorn_mod, "_TOL_MARGINAL", 1e-9)
    state = align_step(x, y, AlignmentState(q=q0, iteration=0), matcher="sinkhorn",
                       sinkhorn_eps=0.5)

    xq = x @ q0.q
    d2 = (xq * xq).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * (xq @ y.T)
    np.maximum(d2, 0.0, out=d2)
    plan = sinkhorn_plan(d2, 0.5)
    matched = (b * plan.weights) @ y
    grad = -2.0 * (x.T @ matched)
    alpha = d / (2.0 * b)
    want_q = project_orthogonal(q0.q - alpha * grad).q
    assert np.array_equal(state.q.q, want_q)


def test_gradient_is_derivative_of_trace_form():
    # With the matching frozen, the objective restricted to orthogonal Q
    # is const - 2 tr(Q' X' P Y); finite differences of that trace form
    # must reproduce G = -2 X' P Y entrywise.
    rng = np.random.default_rng(2)
    b, d = 9, 4
    x = rng.standard_normal((b, d))
    y = rng.standard_normal((b, d))
    q = random_orthogonal(rng, d)
    perm = max_trace_matching((x @ q) @ y.T)
    p = permutation_matrix(perm)
    m = x.T @ (p @ y)
    grad = -2.0 * m

    def f(qm):
        return -2.0 * float(np.sum(qm * m))

    h = 1e-6
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = h
            fd = (f(q + e) - f(q - e)) / (2 * h)
            assert fd == pytest.approx(grad[i, j], rel=1e-6, abs=1e-8)


def test_iterates_stay_orthogonal():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((80, 5))
    r = random_orthogonal(rng, 5)
    y = x @ r
    q0 = OrthogonalMap(q=np.eye(5))
    errs = []
    align(x, y, q0, total_iters=60, batch_size_initial=16, batch_doubling=False,
          rng_seed=4, step_callback=lambda s: errs.append(
              np.linalg.norm(s.q.q.T @ s.q.q - np.eye(5))))
    assert len(errs) == 60
    assert max(errs) < 1e-8


def test_align_recovers_known_rotation():
    # Full-batch draws make every step a matching over the whole set, so
    # from a mild perturbation the loop must land on R exactly. Partial
    # batches on sets this small drift (most pairs lack a true partner
    # in the other draw); the stochastic regime is exercised at scale by
    # the acceptance suite.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((120, 4))
    r = random_orthogonal(rng, 4)
    y = x @ r
    start = project_orthogonal(r + 0.05 * rng.standard_normal((4, 4)))
    state = align(x, y, start, total_iters=60, batch_size_initial=120,
                  batch_doubling=False, rng_seed=6)
    first_losses = [v for _, v in state.loss_history[:5]]
    last_losses = [v for _, v in state.loss_history[-5:]]
    assert np.mean(last_losses) < 1e-3 * np.mean(first_losses)
    assert np.linalg.norm(state.q.q - r) < 1e-6


def test_align_history_matches_chained_steps():
    # align is align_step chained over the seeded batches; its history is
    # the chain's, while each callback state carries its own step only.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3))
    q0 = OrthogonalMap(q=np.eye(3))
    seen = []
    got = align(x, y, q0, total_iters=9, batch_size_initial=6, rng_seed=3,
                step_callback=lambda s: seen.append(s.loss_history))

    draws = PortableRng(3)
    state = AlignmentState(q=q0, iteration=0)
    for t in range(1, 10):
        b = aligner_mod._batch_at(t, 9, 6, True)
        ix = draws.sample_without_replacement(40, b)
        iy = draws.sample_without_replacement(40, b)
        state = align_step(x[ix], y[iy], state)
    assert got.iteration == state.iteration == 9
    assert np.array_equal(got.q.q, state.q.q)
    assert got.loss_history == state.loss_history
    assert seen == [(pair,) for pair in state.loss_history]


def test_align_counts_plans_that_miss_tolerance(monkeypatch):
    # One sweep and one Newton step per plan cannot reach the marginal
    # tolerance, so every Sinkhorn step counts one miss; the steps still
    # use their plans, and the run finishes.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 3))
    q0 = OrthogonalMap(q=np.eye(3))
    monkeypatch.setattr(sinkhorn_mod, "_MAX_ITERS", 1)
    seen = []
    got = align(x, y, q0, total_iters=6, batch_size_initial=20,
                batch_doubling=False, matcher="sinkhorn", rng_seed=4,
                step_callback=lambda s: seen.append(
        (s.plans_nonconverged, s.worst_marginal_error)))
    assert [n for n, _ in seen] == [1, 2, 3, 4, 5, 6]
    assert got.plans_nonconverged == 6
    assert got.worst_marginal_error == max(e for _, e in seen)
    assert got.worst_marginal_error > sinkhorn_mod._TOL_MARGINAL

    # The same draws through align_step, with each plan solved directly.
    draws = PortableRng(4)
    state = AlignmentState(q=q0, iteration=0)
    worst = 0.0
    for _ in range(6):
        ix = draws.sample_without_replacement(40, 20)
        iy = draws.sample_without_replacement(40, 20)
        xq = x[ix] @ state.q.q
        d2 = ((xq[:, None, :] - y[iy][None, :, :]) ** 2).sum(axis=2)
        plan = sinkhorn_plan(d2)
        assert not plan.converged
        worst = max(worst, plan.marginal_error)
        state = align_step(x[ix], y[iy], state, matcher="sinkhorn")
    assert np.array_equal(got.q.q, state.q.q)
    assert got.worst_marginal_error == pytest.approx(worst, rel=1e-6)

    exact = align(x, y, q0, total_iters=6, batch_size_initial=20,
                  batch_doubling=False, matcher="hungarian", rng_seed=4)
    assert exact.plans_nonconverged == 0
    assert exact.worst_marginal_error == 0.0


def test_align_deterministic_per_seed():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 3))
    q0 = OrthogonalMap(q=np.eye(3))
    args = dict(total_iters=25, batch_size_initial=10, batch_doubling=False)
    a = align(x, y, q0, rng_seed=11, **args)
    b = align(x, y, q0, rng_seed=11, **args)
    assert np.array_equal(a.q.q, b.q.q)
    assert a.loss_history == b.loss_history
    other = align(x, y, q0, rng_seed=12, **args)
    assert not np.array_equal(a.q.q, other.q.q)


def test_batch_schedule_doubles_at_thirds():
    batch_at = aligner_mod._batch_at
    assert [batch_at(t, 9, 2, True) for t in range(1, 10)] == [2, 2, 4, 4, 4, 8, 8, 8, 8]

    assert batch_at(1333, 4000, 500, True) == 500
    assert batch_at(1334, 4000, 500, True) == 1000
    assert batch_at(2666, 4000, 500, True) == 1000
    assert batch_at(2667, 4000, 500, True) == 2000
    assert batch_at(4000, 4000, 500, True) == 2000

    assert {batch_at(t, 9, 2, False) for t in range(1, 10)} == {2}


def test_pool_checks():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((100, 3))
    y = rng.standard_normal((100, 3))
    q0 = OrthogonalMap(q=np.eye(3))
    with pytest.raises(InvalidArgumentError, match="sample_pool 200 exceeds"):
        align(x, y, q0, total_iters=2, batch_size_initial=10, sample_pool=200)
    # Doubling pushes the final batch to 160 > 100 available rows.
    with pytest.raises(InvalidArgumentError, match="smaller than the final batch"):
        align(x, y, q0, total_iters=3, batch_size_initial=40)


def test_degenerate_update_names_iteration(monkeypatch):
    def boom(m):
        raise DegenerateProjectionError("rank-deficient input")

    monkeypatch.setattr(aligner_mod, "project_orthogonal", boom)
    x = np.eye(3)
    with pytest.raises(DegenerateProjectionError) as err:
        align_step(x, x, AlignmentState(q=OrthogonalMap(q=np.eye(3)),
                                        iteration=6))
    assert "iteration 7" in str(err.value)


def test_hungarian_vertices_are_exact_on_the_raw_score(monkeypatch):
    # The exact solve reads the score minus entropic potentials; every
    # match must still be the assignment of the score itself.
    rng = np.random.default_rng(30)
    n, d = 400, 20
    x = rng.standard_normal((n, d))
    q = random_orthogonal(rng, d)
    y = x[rng.permutation(n)] @ q + 0.3 * rng.standard_normal((n, d))
    q0 = OrthogonalMap(project_orthogonal(q + 0.5 * rng.standard_normal((d, d))).q)
    batches, picked = [], []

    def record_step(x_batch, y_batch, state, **kwargs):
        batches.append((x_batch, y_batch, state.q.q))
        return align_step(x_batch, y_batch, state, **kwargs)

    def record_match(score):
        perm = max_trace_matching(score)
        picked.append(perm.mapping.tolist())
        return perm

    monkeypatch.setattr(aligner_mod, "align_step", record_step)
    monkeypatch.setattr(aligner_mod, "max_trace_matching", record_match)
    align(x, y, q0, total_iters=9, batch_size_initial=40, matcher="hungarian",
          rng_seed=4)
    assert len(picked) == len(batches) == 9
    for (xb, yb, qb), got in zip(batches, picked):
        want, _ = solve_lap(-((xb @ qb) @ yb.T))
        assert got == want.mapping.tolist()


def test_squared_distances_keep_the_plain_expression_bits():
    rng = np.random.default_rng(31)
    for b, d in ((1, 3), (7, 5), (150, 30)):
        xq = rng.standard_normal((b, d))
        y = xq + 1e-9 * rng.standard_normal((b, d))  # some entries round below 0
        got = aligner_mod._squared_distances(xq, y)
        want = np.maximum(squared_distances(xq, y), 0.0)
        assert got.tobytes() == want.tobytes()

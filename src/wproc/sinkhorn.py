"""Entropy-regularized optimal transport between uniform point sets.

Solves min_P <P, C> - eps * H(P) over coupling matrices with uniform
marginals 1/b.  Small regularization makes the plan concentrate on the
optimal assignment, which is what the alignment loop needs; large
regularization is cheap and smooth.  The solver picks a linear-domain
scaling loop when the kernel is safe to exponentiate and otherwise runs
a stabilized log-domain loop with an epsilon ladder and a Newton finish
on the dual potentials.  The linear loop over-relaxes its scalings after
a few plain sweeps, which cuts the sweeps a nearly-an-assignment plan
needs several-fold.  A linear loop that stays finite but misses the
tolerance hands its potentials straight to that Newton finish; only a
loop whose scalings or kernel sums stop being positive and finite
starts over in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .linalg import as_matrix

__all__ = ["TransportPlan", "sinkhorn_plan"]

# Above this value of span(cost)/epsilon the plain kernel underflows
# badly enough that the log-domain path is required.
_LINEAR_DOMAIN_SPAN = 500.0

# Fraction of the iteration budget the epsilon ladder may consume.
_LADDER_BUDGET = 0.5

_LADDER_WARMUP = 10

# Iteration budget of one loop: ladder stages, scaling sweeps and Newton
# steps all draw from it.  A linear loop that hands its potentials over
# has spent its budget, and the Newton finish draws from a fresh one, so
# a plan takes at most 2 * _MAX_ITERS iterations and reports them all.
_MAX_ITERS = 100

# Worst allowed deviation of any row or column sum from 1/b.
_TOL_MARGINAL = 1e-6

# The linear loop sweeps plainly _SOR_WARMUP times, then over-relaxes its
# updates with exponent _SOR_OMEGA.  A plan that converges within the
# warm-up keeps the plain loop's bytes.  Chosen on late aligner plans:
# 18 captured bli-d300 plans (b=600) and 6 paper-scale plans (b=2000,
# true map), each converging to _TOL_MARGINAL.  Sweeps per plan, and
# plans handed to Newton:
#
#   warm-up, omega   b=600 sweeps (handoffs)   b=2000 sweeps
#   plain loop       58-102 (14 of 18)          101 (6 of 6)
#   10, 1.7          24-101 (1)                 55-75
#   10, 1.75         29-87                      46-64
#   10, 1.8          34-69                      34-52
#   10, 1.85         44-48                      42
#   10, 1.9          61-68                      59
#    5, 1.8          32-64                      30-47
#   20, 1.8          38-78                      45-62
#
# Near 1.85 the count stops depending on the plan; larger omega
# oscillates, smaller omega leaves the hardest plans near the budget.
# The first over-relaxed sweep reads the previous sweep's scalings, so
# the warm-up is at least one sweep.
_SOR_WARMUP = 10
_SOR_OMEGA = 1.8


@dataclass(frozen=True)
class TransportPlan:
    """Coupling with uniform target marginals 1/b.

    weights has total mass 1; row sums and column sums each deviate
    from 1/b by at most marginal_error.
    """

    weights: np.ndarray
    converged: bool
    marginal_error: float
    iterations: int = 0
    epsilon: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidArgumentError("plan must be square")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise InvalidArgumentError("plan entries must be finite and nonnegative")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def handed_off(self) -> bool:
        """True when the linear loop missed and a Newton finish followed.

        Only a handed-off plan counts more than _MAX_ITERS iterations.
        """
        return self.iterations > _MAX_ITERS


def _resolve_epsilon(cost: np.ndarray, epsilon: float | None) -> float:
    if epsilon is not None:
        if not epsilon > 0.0:
            raise InvalidArgumentError("epsilon must be positive")
        return float(epsilon)
    # np.median's bits from one partition: the upper middle entry, and for
    # an even count the mean of it and the largest entry below it.
    half = cost.size // 2
    flat = np.partition(cost, half, axis=None)
    med = float(flat[half])
    if cost.size % 2 == 0:
        med = (float(flat[:half].max()) + med) / 2.0
    if not med > 0.0:
        raise InvalidArgumentError(
            "adaptive epsilon needs a positive median cost; pass epsilon explicitly"
        )
    return 0.05 * med


def _marginal_error(plan: np.ndarray) -> float:
    target = 1.0 / plan.shape[0]
    row = np.abs(plan.sum(axis=1) - target).max()
    col = np.abs(plan.sum(axis=0) - target).max()
    return float(max(row, col))


def _gibbs_kernel(cost: np.ndarray, cmin, eps: float) -> np.ndarray:
    """exp(-(cost - cmin) / eps), built in one b x b array."""
    kernel = cost - cmin
    kernel /= -eps
    return np.exp(kernel, out=kernel)


def _sinkhorn_linear(cost: np.ndarray, eps: float) -> TransportPlan | None:
    """Scaling loop on the exponentiated kernel, over-relaxed after a warm-up.

    The first _SOR_WARMUP sweeps are plain Sinkhorn-Knopp: v = 1/(b K'u),
    then u = 1/(b K v).  Later sweeps over-relax both updates,
    v <- v (v_plain / v)^omega and then u likewise, with omega =
    _SOR_OMEGA (Thibault, Chizat, Dossal & Papadakis 2017).  The fixed
    point is the same; near it the sweeps contract much faster.  The
    rows then no longer sum exactly after the u update, so the stop test
    reads both marginals: u * Kv for the rows and v * K'u for the
    columns.

    Returns None when the iteration degrades numerically (a kernel sum
    or a marginal is not positive and finite), so the caller starts
    over in the log domain.  A loop that stays finite but misses the
    tolerance within _MAX_ITERS sweeps hands its potentials
    f = eps log u + min C and g = eps log v to the Newton finish of
    _sinkhorn_log.
    """
    b = cost.shape[0]
    target = 1.0 / b
    cmin = cost.min()
    kernel = _gibbs_kernel(cost, cmin, eps)
    u = np.full(b, 1.0 / b)
    ku = kernel.T @ u
    # An over-relaxed update can overflow or divide by zero on its way
    # to a value the checks below reject; those steps are expected.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, _MAX_ITERS + 1):
            relaxed = it > _SOR_WARMUP
            if not np.all(ku > 0.0):
                return None
            v = v * (target / col) ** _SOR_OMEGA if relaxed else target / ku
            kv = kernel @ v
            if not np.all(kv > 0.0):
                return None
            u = u * (target / (u * kv)) ** _SOR_OMEGA if relaxed else target / kv
            ku = kernel.T @ u
            # v * ku and u * kv are the column and row sums of the
            # current plan without materializing it; ku carries into the
            # next sweep.  Two matvecs per iteration total.
            col = v * ku
            row = u * kv
            if not (np.all(np.isfinite(col)) and np.all(np.isfinite(row))):
                return None
            err = float(max(np.abs(col - target).max(), np.abs(row - target).max()))
            if err <= _TOL_MARGINAL:
                plan = u[:, None] * kernel * v[None, :]
                if not np.all(np.isfinite(plan)):
                    return None
                return TransportPlan(plan, True, _marginal_error(plan), it, eps)
    f = eps * np.log(u) + cmin
    g = eps * np.log(v)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        return None
    # The finish builds b x b arrays of its own; the kernel is not needed
    # any more, so it does not have to stay alive beside them.
    del kernel
    return _sinkhorn_log(cost, eps, (f, g, _MAX_ITERS))


def _log_exponent(scaled: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float):
    """scaled + f[:, None] / eps + g[None, :] / eps, in one b x b array."""
    out = scaled + (f / eps)[:, None]
    out += (g / eps)[None, :]
    return out


def _log_marginals(scaled: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float):
    plan = _log_exponent(scaled, f, g, eps)
    np.exp(plan, out=plan)
    return plan, _marginal_error(plan)


def _lse_rows(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=1)
    shifted = m - mx[:, None]
    np.exp(shifted, out=shifted)
    return mx + np.log(shifted.sum(axis=1))


def _lse_cols(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=0)
    shifted = m - mx[None, :]
    np.exp(shifted, out=shifted)
    return mx + np.log(shifted.sum(axis=0))


def _sinkhorn_log(cost: np.ndarray, eps: float, warm=None) -> TransportPlan:
    """Stabilized solver: epsilon ladder, scaling sweeps, Newton finish.

    The ladder anneals the regularization down to eps so the potentials
    start each stage near the solution of the previous one.  Plain
    sweeps contract slowly once the plan is nearly an assignment with
    closely tied alternatives, so after a warm start the column
    potentials are polished with damped Newton steps on the dual; each
    step solves a (b-1) x (b-1) system, which is cheap at batch sizes.
    The returned plan is always exp((f_i + g_j - C_ij) / eps), i.e. a
    positive diagonal rescaling of the kernel.

    warm, when given, is (f, g, sweeps): the potentials a linear loop
    reached after spending sweeps iterations.  The ladder is skipped and
    the finish starts with a Newton step, from a budget of its own of
    _MAX_ITERS; the plan's iterations count the sweeps too.
    """
    b = cost.shape[0]
    log_target = -np.log(b)
    span = float(cost.max() - cost.min())
    f, g, swept = warm if warm is not None else (np.zeros(b), np.zeros(b), 0)
    spent = 0

    if warm is None and span > 0.0:
        ladder = []
        e = span / 8.0
        while e > eps:
            ladder.append(e)
            e /= 2.0
        budget = int(_MAX_ITERS * _LADDER_BUDGET)
        if ladder:
            per_stage = min(_LADDER_WARMUP, max(1, budget // len(ladder)))
            for e in ladder:
                if spent + per_stage > budget:
                    break
                sc = -cost / e
                for _ in range(per_stage):
                    f = e * (log_target - _lse_rows(sc + g[None, :] / e))
                    g = e * (log_target - _lse_cols(sc + f[:, None] / e))
                spent += per_stage

    sc = -cost / eps
    plan, err = _log_marginals(sc, f, g, eps)
    stalled = warm is not None
    newton_ok = b > 1
    while spent < _MAX_ITERS:
        if err <= _TOL_MARGINAL:
            return TransportPlan(plan, True, err, swept + spent, eps)
        if stalled and newton_ok:
            improved, f, g, plan, err = _newton_step(sc, f, g, eps, log_target)
            spent += 1
            if not improved:
                newton_ok = False  # direction failed, sweep out the budget
        else:
            prev = err
            f = eps * (log_target - _lse_rows(sc + g[None, :] / eps))
            g = eps * (log_target - _lse_cols(sc + f[:, None] / eps))
            spent += 1
            plan, err = _log_marginals(sc, f, g, eps)
            # Progress this slow means near-tied assignments; switch
            # to Newton polishing of the potentials.
            if err > 0.5 * prev:
                stalled = True
    return TransportPlan(plan, err <= _TOL_MARGINAL, err, swept + spent, eps)


def _newton_step(sc, f, g, eps, log_target):
    """One damped Newton update of g with f kept row-feasible.

    Returns (improved, f, g, plan, err).  The Hessian of the dual in g
    alone is (diag(colsum) - P.T diag(1/rowsum) P) / eps, singular
    along the constant shift, so one coordinate is pinned; a vanishing
    ridge keeps the factorization alive when the plan is already close
    to a permutation and the block is numerically rank-deficient.
    """
    b = g.shape[0]
    target = 1.0 / b
    f = eps * (log_target - _lse_rows(sc + g[None, :] / eps))
    plan, base = _log_marginals(sc, f, g, eps)
    row = plan.sum(axis=1)
    col = plan.sum(axis=0)
    grad = target - col
    # hess = (diag(col) - P.T diag(1/row) P) / eps, built in the one b x b
    # array the product returns.
    hess = plan.T @ (plan / row[:, None])
    np.negative(hess, out=hess)
    diag = hess.reshape(-1)[:: b + 1]  # a view of the diagonal
    diag += col
    hess /= eps
    k = b - 1
    diag[:k] += 1e-18
    try:
        delta = np.linalg.solve(hess[:k, :k], grad[:k])
    except np.linalg.LinAlgError:
        return False, f, g, plan, base
    # The line search builds b x b candidates; the Hessian is not needed
    # beside them.
    del hess, diag
    if not np.all(np.isfinite(delta)):
        return False, f, g, plan, base
    step = 1.0
    for _ in range(20):
        cand = g.copy()
        cand[:k] += step * delta
        fc = eps * (log_target - _lse_rows(sc + cand[None, :] / eps))
        # Row-feasible potentials bound every entry by 1/b, so positive
        # exponents are pure roundoff from an oversized step; clipping
        # only prevents overflow on candidates headed for rejection.
        pc = _log_exponent(sc, fc, cand, eps)
        np.minimum(pc, 0.0, out=pc)
        np.exp(pc, out=pc)
        err = _marginal_error(pc)
        if err < base:
            return True, fc, cand, pc, err
        step *= 0.5
    return False, f, g, plan, base


def sinkhorn_plan(cost: np.ndarray, epsilon: float | None = None) -> TransportPlan:
    """Solve the entropic transport problem for a square cost matrix.

    Parameters
    ----------
    cost : (b, b) array_like
        Pairwise transport costs.  Must be finite.
    epsilon : float, optional
        Entropic regularization, positive.  None selects
        0.05 * median(cost) per call, which tracks the scale of the
        inputs.

    Returns
    -------
    TransportPlan
        Mass-1 coupling.  converged is False when the marginal
        tolerance _TOL_MARGINAL was not reached inside the iteration
        budget (_MAX_ITERS per loop; a handed-off plan has two loops).
    """
    c = as_matrix(cost, "cost")
    if c.shape[0] != c.shape[1]:
        raise InvalidArgumentError("cost matrix must be square")
    eps = _resolve_epsilon(c, epsilon)
    span = float(c.max() - c.min())
    if span == 0.0:
        b = c.shape[0]
        plan = np.full((b, b), 1.0 / (b * b))
        return TransportPlan(plan, True, 0.0, 0, eps)
    if span / eps <= _LINEAR_DOMAIN_SPAN:
        result = _sinkhorn_linear(c, eps)
        if result is not None:
            return result
    return _sinkhorn_log(c, eps)

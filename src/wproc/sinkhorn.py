"""Entropy-regularized optimal transport between uniform point sets.

Solves min_P <P, C> - eps * H(P) over coupling matrices with uniform
marginals 1/b.  Small regularization makes the plan concentrate on the
optimal assignment, which is what the alignment loop needs; large
regularization is cheap and smooth.  The solver picks a linear-domain
scaling loop when the kernel is safe to exponentiate and otherwise runs
a stabilized log-domain loop with an epsilon ladder and a Newton finish
on the dual potentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .linalg import as_matrix

__all__ = ["SinkhornConfig", "TransportPlan", "sinkhorn_plan"]

# Above this value of span(cost)/epsilon the plain kernel underflows
# badly enough that the log-domain path is required.
_LINEAR_DOMAIN_SPAN = 500.0

# Fraction of the iteration budget the epsilon ladder may consume.
_LADDER_BUDGET = 0.5

_LADDER_WARMUP = 10


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs.

    epsilon : float or None
        Entropic regularization.  None selects 0.05 * median(cost) per
        call, which tracks the scale of the inputs.
    max_iters : int
        Iteration budget.  Ladder stages, scaling sweeps and Newton
        steps all draw from it.
    tol_marginal : float
        Worst allowed deviation of any row or column sum from 1/b.
    """

    epsilon: float | None = None
    max_iters: int = 100
    tol_marginal: float = 1e-6

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise InvalidArgumentError("epsilon must be positive")
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be at least 1")
        if not self.tol_marginal > 0.0:
            raise InvalidArgumentError("tol_marginal must be positive")


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


def _resolve_epsilon(cost: np.ndarray, cfg: SinkhornConfig) -> float:
    if cfg.epsilon is not None:
        return float(cfg.epsilon)
    med = float(np.median(cost))
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


def _sinkhorn_linear(
    cost: np.ndarray, eps: float, cfg: SinkhornConfig
) -> TransportPlan | None:
    """Plain scaling loop on the exponentiated kernel.

    Returns None when the iteration degrades numerically or fails to
    reach the tolerance, so the caller can retry in the log domain.
    """
    b = cost.shape[0]
    target = 1.0 / b
    kernel = np.exp(-(cost - cost.min()) / eps)
    u = np.full(b, 1.0 / b)
    ku = kernel.T @ u
    for it in range(1, cfg.max_iters + 1):
        if not np.all(ku > 0.0):
            return None
        v = target / ku
        kv = kernel @ v
        if not np.all(kv > 0.0):
            return None
        u = target / kv
        ku = kernel.T @ u
        # After the u update the row sums are exact, so convergence
        # rides on the column deviation alone; v * ku gives the column
        # sums without materializing the plan, and ku carries into the
        # next sweep.  Two matvecs per iteration total.
        col = v * ku
        if not np.all(np.isfinite(col)):
            return None
        err = float(np.abs(col - target).max())
        if err <= cfg.tol_marginal:
            plan = u[:, None] * kernel * v[None, :]
            if not np.all(np.isfinite(plan)):
                return None
            return TransportPlan(plan, True, _marginal_error(plan), it, eps)
    return None


def _log_marginals(scaled: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float):
    plan = np.exp(scaled + f[:, None] / eps + g[None, :] / eps)
    return plan, _marginal_error(plan)


def _lse_rows(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=1)
    return mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))


def _lse_cols(m: np.ndarray) -> np.ndarray:
    mx = m.max(axis=0)
    return mx + np.log(np.exp(m - mx[None, :]).sum(axis=0))


def _sinkhorn_log(cost: np.ndarray, eps: float, cfg: SinkhornConfig) -> TransportPlan:
    """Stabilized solver: epsilon ladder, scaling sweeps, Newton finish.

    The ladder anneals the regularization down to eps so the potentials
    start each stage near the solution of the previous one.  Plain
    sweeps contract slowly once the plan is nearly an assignment with
    closely tied alternatives, so after a warm start the column
    potentials are polished with damped Newton steps on the dual; each
    step solves a (b-1) x (b-1) system, which is cheap at batch sizes.
    The returned plan is always exp((f_i + g_j - C_ij) / eps), i.e. a
    positive diagonal rescaling of the kernel.
    """
    b = cost.shape[0]
    log_target = -np.log(b)
    span = float(cost.max() - cost.min())
    f = np.zeros(b)
    g = np.zeros(b)
    spent = 0

    if span > 0.0:
        ladder = []
        e = span / 8.0
        while e > eps:
            ladder.append(e)
            e /= 2.0
        budget = int(cfg.max_iters * _LADDER_BUDGET)
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
    stalled = False
    newton_ok = b > 1
    while spent < cfg.max_iters:
        if err <= cfg.tol_marginal:
            return TransportPlan(plan, True, err, spent, eps)
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
    return TransportPlan(plan, err <= cfg.tol_marginal, err, spent, eps)


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
    plan = np.exp(sc + f[:, None] / eps + g[None, :] / eps)
    row = plan.sum(axis=1)
    col = plan.sum(axis=0)
    base = _marginal_error(plan)
    grad = target - col
    hess = (np.diag(col) - plan.T @ (plan / row[:, None])) / eps
    k = b - 1
    try:
        delta = np.linalg.solve(hess[:k, :k] + 1e-18 * np.eye(k), grad[:k])
    except np.linalg.LinAlgError:
        return False, f, g, plan, base
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
        expo = np.minimum(sc + fc[:, None] / eps + cand[None, :] / eps, 0.0)
        pc = np.exp(expo)
        err = _marginal_error(pc)
        if err < base:
            return True, fc, cand, pc, err
        step *= 0.5
    return False, f, g, plan, base


def sinkhorn_plan(cost: np.ndarray, cfg: SinkhornConfig | None = None) -> TransportPlan:
    """Solve the entropic transport problem for a square cost matrix.

    Parameters
    ----------
    cost : (b, b) array_like
        Pairwise transport costs.  Must be finite.
    cfg : SinkhornConfig, optional
        Solver settings; defaults are fine for moderate regularization.

    Returns
    -------
    TransportPlan
        Mass-1 coupling.  converged is False when the marginal
        tolerance was not reached inside the iteration budget.
    """
    if cfg is None:
        cfg = SinkhornConfig()
    c = as_matrix(cost, "cost")
    if c.shape[0] != c.shape[1]:
        raise InvalidArgumentError("cost matrix must be square")
    eps = _resolve_epsilon(c, cfg)
    span = float(c.max() - c.min())
    if span == 0.0:
        b = c.shape[0]
        plan = np.full((b, b), 1.0 / (b * b))
        return TransportPlan(plan, True, 0.0, 0, eps)
    if span / eps <= _LINEAR_DOMAIN_SPAN:
        result = _sinkhorn_linear(c, eps, cfg)
        if result is not None:
            return result
    return _sinkhorn_log(c, eps, cfg)

"""Stochastic optimizer for alignment with unknown correspondence.

Alternates two moves on mini-batches: match the current images x @ Q
against y by an exact assignment (or an entropic plan at larger batch
sizes), then take a gradient step on Q and project back onto the
orthogonal group via the polar factor.  The batch size starts small,
where matching is cheap and gradients are noisy enough to escape poor
regions, and doubles twice as the run progresses to polish the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assignment import max_trace_matching
from .errors import ConfigError, DegenerateProjectionError, InvalidArgumentError
from .linalg import OrthogonalMap, as_matrix, project_orthogonal
from .rng import PortableRng
from .sinkhorn import sinkhorn_plan

__all__ = ["AlignmentConfig", "AlignmentState", "align_step", "align"]

# Batch size above which the exact assignment gives way to Sinkhorn
# under matcher="auto".
_AUTO_EXACT_LIMIT = 512


@dataclass(frozen=True)
class AlignmentConfig:
    """Settings for the stochastic alignment loop.

    step_size multiplies the base step d / (2b); the matching gradient
    scales with the batch size, so normalizing by b keeps the effective
    step stable across the doubling schedule.  sinkhorn_eps is the
    entropic regularization of Sinkhorn matching; None lets each plan
    pick 0.05 * median(cost).
    """

    total_iters: int = 4000
    batch_size_initial: int = 500
    batch_doubling: bool = True
    step_size: float = 1.0
    matcher: str = "auto"
    sinkhorn_eps: float | None = None
    sample_pool: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.total_iters < 1:
            raise InvalidArgumentError("total_iters must be at least 1")
        if self.batch_size_initial < 2:
            raise InvalidArgumentError("batch size must be at least 2")
        if not self.step_size > 0.0:
            raise InvalidArgumentError("step_size must be positive")
        if self.matcher not in ("auto", "hungarian", "sinkhorn"):
            raise InvalidArgumentError(
                f"matcher must be auto, hungarian or sinkhorn, got {self.matcher!r}"
            )
        if self.sinkhorn_eps is not None and not self.sinkhorn_eps > 0.0:
            raise InvalidArgumentError("sinkhorn_eps must be positive")
        if self.sample_pool is not None and self.sample_pool < 2:
            raise InvalidArgumentError("sample_pool must be at least 2")


@dataclass(frozen=True)
class AlignmentState:
    """Snapshot after some number of steps.

    loss_history holds (iteration, batch loss) pairs where the loss is
    ||X Q - P Y||_F^2 / b on that step's batch, an estimate of the
    population transport objective.  plans_nonconverged counts the
    Sinkhorn plans so far that missed the marginal tolerance, and
    worst_marginal_error is the largest marginal error among all of
    them (0.0 while every step used the exact assignment).  Such a plan
    is still used for its step: the run warns and counts, it does not
    stop.
    """

    q: OrthogonalMap
    iteration: int
    loss_history: tuple = ()
    plans_nonconverged: int = 0
    worst_marginal_error: float = 0.0


def _resolve_matcher(matcher: str, b: int) -> str:
    if matcher == "auto":
        return "hungarian" if b <= _AUTO_EXACT_LIMIT else "sinkhorn"
    return matcher


def _squared_distances(xq: np.ndarray, y: np.ndarray) -> np.ndarray:
    sq_x = (xq * xq).sum(axis=1)
    sq_y = (y * y).sum(axis=1)
    d2 = sq_x[:, None] + sq_y[None, :] - 2.0 * (xq @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def align_step(
    x_batch, y_batch, state: AlignmentState, cfg: AlignmentConfig
) -> AlignmentState:
    """One matching + projected gradient step.

    Matches the batch under the current map, computes the gradient
    G = -2 X' P Y of the trace objective, and projects Q - alpha G back
    onto the orthogonal group.
    """
    x = as_matrix(x_batch, "x batch")
    y = as_matrix(y_batch, "y batch")
    if x.shape != y.shape:
        raise InvalidArgumentError(f"batch shapes differ: {x.shape} vs {y.shape}")
    b, d = x.shape
    if d != state.q.dim:
        raise InvalidArgumentError(
            f"batch dimension {d} does not match map dimension {state.q.dim}"
        )
    xq = x @ state.q.q
    matcher = _resolve_matcher(cfg.matcher, b)
    missed, worst = state.plans_nonconverged, state.worst_marginal_error
    if matcher == "hungarian":
        # minimizing sum ||x_i Q - y_match(i)||^2 = maximizing the trace
        # of the score form, since the norms do not depend on the match
        perm = max_trace_matching(xq @ y.T)
        matched = y[perm.mapping]
    else:
        plan = sinkhorn_plan(_squared_distances(xq, y), cfg.sinkhorn_eps)
        # scale the mass-1 plan to row sums 1 so it plays the role of
        # a (soft) permutation matrix
        matched = (b * plan.weights) @ y
        missed += not plan.converged
        worst = max(worst, plan.marginal_error)
    diff = xq - matched
    loss = float((diff * diff).sum()) / b
    grad = -2.0 * (x.T @ matched)
    alpha = cfg.step_size * d / (2.0 * b)
    try:
        q_next = project_orthogonal(state.q.q - alpha * grad)
    except DegenerateProjectionError as exc:
        raise DegenerateProjectionError(
            f"update at iteration {state.iteration + 1} is rank deficient: {exc}"
        ) from exc
    it = state.iteration + 1
    return AlignmentState(
        q=q_next,
        iteration=it,
        loss_history=state.loss_history + ((it, loss),),
        plans_nonconverged=missed,
        worst_marginal_error=worst,
    )


def _batch_schedule(cfg: AlignmentConfig):
    """Batch size per 1-based iteration index."""
    t_total = cfg.total_iters
    first = -(-t_total // 3)  # ceil
    second = -(-2 * t_total // 3)

    def batch_at(t: int) -> int:
        if not cfg.batch_doubling:
            return cfg.batch_size_initial
        mult = 1
        if t >= first:
            mult *= 2
        if t >= second:
            mult *= 2
        return cfg.batch_size_initial * mult

    return batch_at


def align(
    x, y, q0: OrthogonalMap, cfg: AlignmentConfig | None = None, step_callback=None
) -> AlignmentState:
    """Run the full stochastic loop from an initial orthogonal map.

    Batches are drawn uniformly without replacement from the first
    sample_pool rows of each set, independently for x and y, from a
    deterministic stream seeded by cfg.rng_seed.  When batch_doubling is
    set, the batch size doubles at iterations ceil(T/3) and ceil(2T/3).

    step_callback, when given, is invoked with the state after every
    step; it exists for instrumentation (orthogonality audits, live
    loss reporting) and must not mutate the state.  That state's
    loss_history holds only its own step's (iteration, loss) pair; the
    returned state holds the pairs of all steps.  The Sinkhorn counters
    of every state cover all steps so far.
    """
    if cfg is None:
        cfg = AlignmentConfig()
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1] or x.shape[1] != q0.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: x {x.shape[1]}, y {y.shape[1]}, q0 {q0.dim}"
        )
    n = min(x.shape[0], y.shape[0])
    pool = cfg.sample_pool if cfg.sample_pool is not None else min(n, 20000)
    if pool > n:
        raise ConfigError(f"sample_pool {pool} exceeds available rows {n}")
    batch_at = _batch_schedule(cfg)
    final_b = batch_at(cfg.total_iters)
    if pool < final_b:
        raise ConfigError(
            f"sample_pool {pool} is smaller than the final batch size {final_b}"
        )
    rng = PortableRng(cfg.rng_seed)
    state = AlignmentState(q=q0, iteration=0)
    history = []
    for t in range(1, cfg.total_iters + 1):
        b = batch_at(t)
        ix = rng.sample_without_replacement(pool, b)
        iy = rng.sample_without_replacement(pool, b)
        # Each step starts from an empty history, so no step copies the
        # ones before it; the returned state gathers them all.
        state = align_step(x[ix], y[iy], replace(state, loss_history=()), cfg)
        history.extend(state.loss_history)
        if step_callback is not None:
            step_callback(state)
    return replace(state, loss_history=tuple(history))

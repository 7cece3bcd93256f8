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

from .assignment import max_trace_matching, reduced_cost
from .errors import DegenerateProjectionError, InvalidArgumentError
from .linalg import OrthogonalMap, as_matrix, project_orthogonal
from .rng import PortableRng
from .sinkhorn import sinkhorn_plan

__all__ = ["AlignmentState", "align_step", "align"]

# Batch size above which the exact assignment gives way to Sinkhorn
# under matcher="auto".
_AUTO_EXACT_LIMIT = 512


@dataclass(frozen=True)
class AlignmentState:
    """Snapshot after some number of steps.

    loss_history holds (iteration, batch loss) pairs where the loss is
    ||X Q - P Y||_F^2 / b on that step's batch, an estimate of the
    population transport objective.  plans counts the Sinkhorn plans so
    far, plan_iterations their iterations summed, and plans_handed_off
    those whose linear loop missed and handed over to the Newton finish.
    plans_nonconverged counts the plans that missed the marginal
    tolerance, and worst_marginal_error is the largest marginal error
    among all of them (0.0 while every step used the exact assignment).
    Such a plan is still used for its step: the run warns and counts, it
    does not stop.
    """

    q: OrthogonalMap
    iteration: int
    loss_history: tuple = ()
    plans: int = 0
    plan_iterations: int = 0
    plans_handed_off: int = 0
    plans_nonconverged: int = 0
    worst_marginal_error: float = 0.0


def _check_step_args(step_size: float, matcher: str, sinkhorn_eps):
    if not 0.0 < step_size < np.inf:
        raise InvalidArgumentError("step_size must be finite and positive")
    if matcher not in ("auto", "hungarian", "sinkhorn"):
        raise InvalidArgumentError(
            f"matcher must be auto, hungarian or sinkhorn, got {matcher!r}"
        )
    if sinkhorn_eps is not None and not 0.0 < sinkhorn_eps < np.inf:
        raise InvalidArgumentError("sinkhorn_eps must be finite and positive")


def _squared_distances(xq: np.ndarray, y: np.ndarray) -> np.ndarray:
    sq_x = (xq * xq).sum(axis=1)
    sq_y = (y * y).sum(axis=1)
    # The bits of sq_x + sq_y - 2 (xq y'), in one b x b sum and the
    # product's own array.
    d2 = sq_x[:, None] + sq_y[None, :]
    prod = xq @ y.T
    prod *= 2.0
    d2 -= prod
    np.maximum(d2, 0.0, out=d2)
    return d2


def align_step(x_batch, y_batch, state: AlignmentState, *, step_size: float = 1.0,
               matcher: str = "auto",
               sinkhorn_eps: float | None = None) -> AlignmentState:
    """One matching + projected gradient step.

    Matches the batch under the current map, computes the gradient
    G = -2 X' P Y of the trace objective, and projects Q - alpha G back
    onto the orthogonal group.  alpha is step_size times the base step
    d / (2b); the matching gradient scales with the batch size, so
    normalizing by b keeps the effective step stable across the
    doubling schedule.  matcher is "hungarian", "sinkhorn", or "auto",
    which takes the exact assignment up to b = 512.  sinkhorn_eps is
    the entropic regularization of Sinkhorn matching; None lets each
    plan pick 0.05 * median(cost).
    """
    _check_step_args(step_size, matcher, sinkhorn_eps)
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
    if matcher == "auto":
        matcher = "hungarian" if b <= _AUTO_EXACT_LIMIT else "sinkhorn"
    plan_counts = {}
    if matcher == "hungarian":
        # minimizing sum ||x_i Q - y_match(i)||^2 = maximizing the trace
        # of the score form, since the norms do not depend on the match.
        # The exact solve reads the score minus entropic dual potentials,
        # which has the same optimal matches and leaves it less work.
        reduced, _ = reduced_cost(-(xq @ y.T))
        perm = max_trace_matching(np.negative(reduced, out=reduced))
        matched = y[perm.mapping]
    else:
        plan = sinkhorn_plan(_squared_distances(xq, y), sinkhorn_eps)
        # scale the mass-1 plan to row sums 1 so it plays the role of
        # a (soft) permutation matrix
        matched = (b * plan.weights) @ y
        plan_counts = dict(
            plans=state.plans + 1,
            plan_iterations=state.plan_iterations + plan.iterations,
            plans_handed_off=state.plans_handed_off + plan.handed_off,
            plans_nonconverged=state.plans_nonconverged + (not plan.converged),
            worst_marginal_error=max(state.worst_marginal_error, plan.marginal_error),
        )
    diff = xq - matched
    loss = float((diff * diff).sum()) / b
    grad = -2.0 * (x.T @ matched)
    alpha = step_size * d / (2.0 * b)
    try:
        q_next = project_orthogonal(state.q.q - alpha * grad)
    except DegenerateProjectionError as exc:
        raise DegenerateProjectionError(
            f"update at iteration {state.iteration + 1} is rank deficient: {exc}"
        ) from exc
    it = state.iteration + 1
    return replace(
        state,
        q=q_next,
        iteration=it,
        loss_history=state.loss_history + ((it, loss),),
        **plan_counts,
    )


def _batch_at(t: int, total_iters: int, batch_size_initial: int,
              batch_doubling: bool) -> int:
    """Batch size at 1-based iteration t."""
    if not batch_doubling:
        return batch_size_initial
    # t >= ceil(k T / 3) exactly when 3 t >= k T.
    doublings = (3 * t >= total_iters) + (3 * t >= 2 * total_iters)
    return batch_size_initial * 2**doublings


def align(x, y, q0: OrthogonalMap, *, total_iters: int = 4000,
          batch_size_initial: int = 500, batch_doubling: bool = True,
          step_size: float = 1.0, matcher: str = "auto",
          sinkhorn_eps: float | None = None, sample_pool: int | None = None,
          rng_seed: int = 0, step_callback=None) -> AlignmentState:
    """Run the full stochastic loop from an initial orthogonal map.

    Batches are drawn uniformly without replacement from the first
    sample_pool rows of each set (default: all rows, at most 20000),
    independently for x and y, from a deterministic stream seeded by
    rng_seed.  When batch_doubling is set, the batch size doubles at
    iterations ceil(T/3) and ceil(2T/3).  step_size, matcher and
    sinkhorn_eps are passed to every align_step.

    step_callback, when given, is invoked with the state after every
    step; it exists for instrumentation (orthogonality audits, live
    loss reporting) and must not mutate the state.  That state's
    loss_history holds only its own step's (iteration, loss) pair; the
    returned state holds the pairs of all steps.  The Sinkhorn counters
    of every state cover all steps so far.
    """
    if total_iters < 1:
        raise InvalidArgumentError("total_iters must be at least 1")
    if batch_size_initial < 2:
        raise InvalidArgumentError("batch size must be at least 2")
    _check_step_args(step_size, matcher, sinkhorn_eps)
    if sample_pool is not None and sample_pool < 2:
        raise InvalidArgumentError("sample_pool must be at least 2")
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1] or x.shape[1] != q0.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: x {x.shape[1]}, y {y.shape[1]}, q0 {q0.dim}"
        )
    n = min(x.shape[0], y.shape[0])
    pool = sample_pool if sample_pool is not None else min(n, 20000)
    if pool > n:
        raise InvalidArgumentError(f"sample_pool {pool} exceeds available rows {n}")
    final_b = _batch_at(total_iters, total_iters, batch_size_initial, batch_doubling)
    if pool < final_b:
        raise InvalidArgumentError(
            f"sample_pool {pool} is smaller than the final batch size {final_b}"
        )
    rng = PortableRng(rng_seed)
    state = AlignmentState(q=q0, iteration=0)
    history = []
    for t in range(1, total_iters + 1):
        b = _batch_at(t, total_iters, batch_size_initial, batch_doubling)
        ix = rng.sample_without_replacement(pool, b)
        iy = rng.sample_without_replacement(pool, b)
        # Each step starts from an empty history, so no step copies the
        # ones before it; the returned state gathers them all.
        state = align_step(x[ix], y[iy], replace(state, loss_history=()),
                           step_size=step_size, matcher=matcher,
                           sinkhorn_eps=sinkhorn_eps)
        history.extend(state.loss_history)
        if step_callback is not None:
            step_callback(state)
    return replace(state, loss_history=tuple(history))

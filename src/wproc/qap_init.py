"""Convex-relaxation initializer for the alignment problem.

Unknown-correspondence alignment is relaxed to a quadratic program over
doubly stochastic matrices: minimize f(P) = ||Kx P - P Ky||_F^2 where Kx
and Ky are Gram matrices of the two point sets.  The relaxation is solved
with Frank-Wolfe from the uniform coupling, and the solution (generally not
a permutation) is turned into a starting orthogonal map by Procrustes
against the plan-barycentric image of the second set.

The value of the relaxation is invariance: Gram matrices ignore the
unknown rotation entirely, so the coupling can be estimated before any
orthogonal map exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import max_trace_matching
from .errors import InvalidArgumentError
from .linalg import OrthogonalMap, as_matrix
from .procrustes import fit_orthogonal
from .sinkhorn import TransportPlan

__all__ = ["GramPair", "FwConfig", "build_grams", "fw_solve", "extract_q0"]


def _gram(a: np.ndarray) -> np.ndarray:
    k = a @ a.T
    # dgemm output is not exactly symmetric; the relaxation assumes it.
    return (k + k.T) / 2.0


@dataclass(frozen=True)
class GramPair:
    """The two m-row subsets entering the relaxation, and their Grams.

    kx = x x' and ky = y y' are built once, when the pair is made.  As
    Grams of point sets they are symmetric positive semidefinite, so no
    check on them is needed.
    """

    x: np.ndarray
    y: np.ndarray
    kx: np.ndarray = field(init=False, repr=False)
    ky: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_matrix(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise InvalidArgumentError(
                f"row count mismatch: x {x.shape[0]} vs y {y.shape[0]}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "kx", _gram(x))
        object.__setattr__(self, "ky", _gram(y))

    @property
    def size(self) -> int:
        return self.kx.shape[0]


@dataclass(frozen=True)
class FwConfig:
    """Frank-Wolfe settings.

    gap_tol = None resolves at solve time to 1e-6 times the initial
    objective; the relaxation converges slowly near the boundary and the
    output only needs to land in the basin of the stochastic optimizer.
    """

    max_iters: int = 300
    gap_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be at least 1")
        if self.gap_tol is not None and not self.gap_tol > 0.0:
            raise InvalidArgumentError("gap_tol must be positive")


def build_grams(x, y, m: int) -> GramPair:
    """Gram matrices of the first m rows of each set (frequency order)."""
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if m > min(x.shape[0], y.shape[0]):
        raise InvalidArgumentError(
            f"m={m} exceeds available rows ({x.shape[0]}, {y.shape[0]})"
        )
    if m < 1:
        raise InvalidArgumentError("m must be at least 1")
    return GramPair(x[:m], y[:m])


def fw_solve(g: GramPair, cfg: FwConfig | None = None):
    """Minimize the relaxation over doubly stochastic matrices.

    Starts from the uniform coupling.  Each iteration takes the vertex
    minimizing the linearized objective (an exact assignment on the
    negated gradient), then moves by the closed-form optimal step of the
    quadratic along the segment, clipped to [0, 1].  Terminates when the
    duality gap <grad, P - S> drops below gap_tol.

    Returns
    -------
    (TransportPlan, list of float)
        The coupling scaled to total mass 1, and the objective value at
        the initial point plus after every iteration.
    """
    if cfg is None:
        cfg = FwConfig()
    m = g.size
    p = np.full((m, m), 1.0 / m)
    # R = Kx P - P Ky is maintained incrementally: the line segment is
    # linear in P, so R moves by gamma * T per step with no extra products.
    r = g.kx @ p - p @ g.ky
    f0 = float((r * r).sum())
    gap_tol = cfg.gap_tol if cfg.gap_tol is not None else 1e-6 * f0
    trace = [f0]
    iters = 0
    converged = False
    for _ in range(cfg.max_iters):
        grad = 2.0 * (g.kx @ r - r @ g.ky)
        # Subtracting each column's minimum leaves the optimal vertex
        # unchanged and hands the shortest-augmenting-path solver the
        # column duals it would otherwise build first (Jonker-Volgenant's
        # column reduction), which makes it much faster on these
        # gradients.  Everything below still reads the raw gradient.
        vertex = max_trace_matching(grad.min(axis=0) - grad)
        # <grad, S> for a permutation vertex is a gather, not a product.
        rows = np.arange(m)
        grad_s = float(grad[rows, vertex.mapping].sum())
        gap = float((grad * p).sum()) - grad_s
        if gap <= gap_tol:
            converged = True
            break
        # T = Kx D - D Ky for D = S - P; the S terms are permutations of
        # the Gram rows/columns, so T costs O(m^2) given R.
        inv = vertex.inverse().mapping
        t = (g.kx[:, inv] - g.ky[vertex.mapping, :]) - r
        tt = float((t * t).sum())
        if tt <= 0.0:
            # flat segment: any step keeps f constant, take the vertex
            p = vertex.as_matrix()
            r = g.kx[:, inv] - g.ky[vertex.mapping, :]
            iters += 1
            trace.append(float((r * r).sum()))
            continue
        gamma = min(1.0, max(0.0, gap / (2.0 * tt)))
        d = vertex.as_matrix()
        d -= p
        p += gamma * d
        r += gamma * t
        iters += 1
        trace.append(float((r * r).sum()))
    err_row = np.abs(p.sum(axis=1) - 1.0).max()
    err_col = np.abs(p.sum(axis=0) - 1.0).max()
    plan = TransportPlan(
        weights=p / m,
        converged=converged,
        marginal_error=float(max(err_row, err_col)) / m,
        iterations=iters,
    )
    return plan, trace


def extract_q0(x, y, plan: TransportPlan) -> OrthogonalMap:
    """Starting orthogonal map from a coupling of the two subsets.

    Scales the plan to row sums 1 and fits Procrustes from x onto the
    resulting barycentric combinations of y rows.  A permutation plan
    reduces to ordinary matched Procrustes; a near-uniform plan collapses
    the target to rank 1 and raises the underlying degenerate-fit error.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    m = plan.size
    if x.shape[0] != m or y.shape[0] != m:
        raise InvalidArgumentError(
            f"plan size {m} does not match rows ({x.shape[0]}, {y.shape[0]})"
        )
    target = (plan.weights @ y) * m
    return fit_orthogonal(x, target)

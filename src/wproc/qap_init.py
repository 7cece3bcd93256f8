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

from .assignment import max_trace_matching, reduced_cost
from .errors import InvalidArgumentError
from .linalg import OrthogonalMap, as_matrix
from .procrustes import fit_orthogonal
from .sinkhorn import TransportPlan

__all__ = ["GramPair", "build_grams", "fw_solve", "extract_q0"]


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


def fw_solve(g: GramPair, max_iters: int = 300, gap_tol: float | None = None):
    """Minimize the relaxation over doubly stochastic matrices.

    Starts from the uniform coupling.  Each iteration takes the vertex
    minimizing the linearized objective (an exact assignment with the
    gradient as cost), then moves by the closed-form optimal step of the
    quadratic along the segment, clipped to [0, 1].  Terminates when the
    duality gap <grad, P - S> drops below gap_tol, or after max_iters
    iterations.

    The gradient is linear in P, so it moves along each segment like P
    does, and one Gram product per iteration updates it; Kx^2 and Ky^2
    are formed once.  The assignment is solved on the gradient minus
    entropic dual potentials (``reduced_cost``), which has the same
    optimal vertices and solves several times faster; after the first
    iteration those potentials start from the previous iteration's.  P
    itself is kept as a weight on the uniform coupling and one per
    vertex, and built once at the end.

    gap_tol = None resolves to 1e-6 times the initial objective; the
    relaxation converges slowly near the boundary and the output only
    needs to land in the basin of the stochastic optimizer.

    Returns
    -------
    (TransportPlan, list of float)
        The coupling scaled to total mass 1, and the objective value at
        the initial point plus after every iteration.
    """
    if max_iters < 1:
        raise InvalidArgumentError("max_iters must be at least 1")
    if gap_tol is not None and not gap_tol > 0.0:
        raise InvalidArgumentError("gap_tol must be positive")
    m = g.size
    kx, ky = g.kx, g.ky
    kx2, ky2 = _gram(kx), _gram(ky)
    # At the uniform P = J/m, Kx P and P Ky hold the Grams' row and column
    # sums, and Kx P Ky = (Kx 1)(1' Ky) / m.
    rx, cy = kx.sum(axis=1), ky.sum(axis=0)
    # R = Kx P - P Ky is maintained incrementally: the line segment is
    # linear in P, so R moves by gamma * T per step with no extra products.
    r = (rx[:, None] - cy[None, :]) / m
    # grad = 2 (Kx^2 P - 2 Kx P Ky + P Ky^2)
    grad = 2.0 * (kx2.sum(axis=1)[:, None] - 2.0 * np.outer(rx, cy)
                  + ky2.sum(axis=0)[None, :]) / m
    f = float(np.vdot(r, r))
    if gap_tol is None:
        gap_tol = 1e-6 * f
    trace = [f]
    rows = np.arange(m)
    # P = uniform * J/m + sum_k weights[k] * S_k over the vertices S_k.
    uniform, weights, verts = 1.0, np.empty(0), []
    pot = None
    iters = 0
    converged = False
    while True:
        # Subtracting row and column potentials moves every permutation's
        # total by one constant, so the optimal vertex is unchanged.  The
        # entropic potentials sit close to the assignment's optimal duals,
        # so the shortest-augmenting-path solver (Jonker-Volgenant) has
        # short paths left to walk on these crowded gradients, where its
        # own column reduction leaves long ones.  Everything below still
        # reads the raw gradient.
        reduced, pot = reduced_cost(grad, pot)
        vertex = max_trace_matching(np.negative(reduced, out=reduced))
        del reduced
        vert = vertex.mapping
        # <grad, S> for a permutation vertex is a gather, not a product,
        # and <grad, P> = 2 <Kx R - R Ky, P> = 2 <R, Kx P - P Ky> = 2f for
        # the symmetric Grams.
        gap = 2.0 * f - float(grad[rows, vert].sum())
        if gap <= gap_tol:
            converged = True
            break
        # T = Kx D - D Ky for D = S - P; the S terms are permutations of
        # the Gram rows/columns, so T costs O(m^2) given R.  A column
        # gather of a symmetric Gram is the transpose of a row gather.
        inv = vertex.inverse().mapping
        kx_s = kx[inv].T  # Kx S
        t = kx_s - ky[vert]
        t -= r
        tt = float(np.vdot(t, t))
        # The gap is positive here.  On a flat segment (||T||^2 = 0) every
        # step keeps f, so the step goes to the vertex.
        gamma = min(1.0, gap / (2.0 * tt)) if tt > 0.0 else 1.0
        t *= gamma
        r += t
        uniform *= 1.0 - gamma
        weights = np.append(weights * (1.0 - gamma), gamma)
        verts.append(vert)
        iters += 1
        f = float(np.vdot(r, r))
        trace.append(f)
        if iters == max_iters:
            break
        # grad <- (1 - gamma) grad + gamma grad(S), with
        # grad(S) = 2 (Kx^2 S - 2 Kx S Ky + S Ky^2), built in T's array.
        # Like the reduced cost, T and Kx S are freed before the next
        # oracle call, so no more m x m arrays are held than P took.
        np.matmul(kx_s, ky, out=t)
        t *= -2.0
        t += kx2[inv].T
        t += ky2[vert]
        t *= 2.0 * gamma
        grad *= 1.0 - gamma
        grad += t
        del t, kx_s
    p = np.full((m, m), uniform / m)
    for vert, w in zip(verts, weights):
        p[rows, vert] += w
    err_row = np.abs(p.sum(axis=1) - 1.0).max()
    err_col = np.abs(p.sum(axis=0) - 1.0).max()
    p /= m
    plan = TransportPlan(
        weights=p,
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

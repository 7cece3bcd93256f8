"""Exact linear assignment.

``solve_lap`` delegates to scipy's Jonker-Volgenant implementation; the
tests cross-check it against an independent brute-force enumerator.
``reduced_cost`` subtracts entropic dual potentials from a cost first,
which keeps every optimal assignment and shortens the solver's work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .linalg import as_matrix

__all__ = ["Permutation", "solve_lap", "max_trace_matching", "reduced_cost"]


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}; ``mapping[i] = j`` matches row i to column j."""

    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=np.int64)
        if m.ndim != 1:
            raise InvalidInputError("permutation mapping must be 1-D")
        n = m.shape[0]
        if n == 0 or np.any(np.sort(m) != np.arange(n)):
            raise InvalidInputError("mapping is not a bijection on {0..n-1}")
        m.setflags(write=False)
        object.__setattr__(self, "mapping", m)

    @property
    def size(self) -> int:
        return self.mapping.shape[0]

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.size)
        return Permutation(inv)


def _check_square_cost(cost, name: str) -> np.ndarray:
    cost = as_matrix(cost, name)
    if cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"{name} must be square, got {cost.shape}")
    return cost


def solve_lap(cost) -> tuple[Permutation, float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns the optimal permutation and its total cost
    ``sum(cost[i, mapping[i]])``.
    """
    cost = _check_square_cost(cost, "cost matrix")
    rows, cols = linear_sum_assignment(cost)
    mapping = np.empty(cost.shape[0], dtype=np.int64)
    mapping[rows] = cols
    total = float(cost[rows, cols].sum())
    return Permutation(mapping), total


def max_trace_matching(score) -> Permutation:
    """Permutation maximizing ``sum(score[i, mapping[i]])``.

    This is the linear-program form of the batch matching step: maximizing
    the trace of the score form equals solving the LAP on negated scores.
    """
    score = _check_square_cost(score, "score matrix")
    perm, _ = solve_lap(-score)
    return perm


# A cold reduction takes its dual potentials from _DUAL_SWEEPS scaling
# sweeps at epsilon = span(cost) / _DUAL_SPAN.  A larger ratio gives
# sharper potentials and a faster exact solve; at most 300 keeps every
# number normal and finite (see _cold_potentials).  Chosen on FW
# gradients at m=400 (bli-d300) and m=2500 (paper scale): 20 and 30
# sweeps tie at m=400, and 30 solves fastest at m=2500.
_DUAL_SPAN = 300.0
_DUAL_SWEEPS = 30

# A warm reduction re-centres a given column potential and sweeps
# _WARM_SWEEPS times at epsilon = span(cost) / _WARM_SPAN.  The sharper
# epsilon is safe there because every kernel row and column holds an
# entry 1 (see _warm_reduction).  Chosen on the 30 Frank-Wolfe gradients
# of bli-d300 (m=400) at seeds 1234 and 77: milliseconds for the 30
# exact solves plus their potentials, best of 6 runs on one core of a
# 2-core Xeon.  Every setting kept all 30 vertices of the cold run.
#
#   potentials            seed 1234   seed 77
#   cold every iteration    278         246
#   K=1000, 10 sweeps       166         189
#   K=1000, 15 sweeps       184         172
#   K=1000, 20 sweeps       179         170
#   K=1500, 10 sweeps       163         174
#   K=1500, 15 sweeps       171         164
#   K=1500, 20 sweeps       180         156
#   K=2000, 10 sweeps       170         219
#   K=2000, 20 sweeps       200         166
#
# K = 1000-1500 with 10-20 sweeps is one flat optimum; K=300 and 500
# (200-366 ms) and K=3000 (194-276 ms) lie above it in a best-of-3 scan.
_WARM_SPAN = 1000.0
_WARM_SWEEPS = 20


def _scalings(kernel: np.ndarray, sweeps: int):
    """Row and column scalings u, v of a kernel, max v kept at 1."""
    v = np.ones(kernel.shape[1])
    for _ in range(sweeps):
        u = 1.0 / (kernel @ v)
        v = 1.0 / (kernel.T @ u)
        v /= v.max()
    return u, v


def _cold_potentials(cost: np.ndarray, cmin, span):
    """Entropic potentials (f, g) of cost from the all-ones scaling."""
    eps = span / _DUAL_SPAN
    # With K = _DUAL_SPAN, kernel entries lie in [e^-K, 1].  Keeping
    # max v = 1 (v starts at 1) bounds every sweep: each row sum of
    # kernel * v is in [e^-K, m], so u is in [1/m, e^K]; two column sums
    # of kernel * u differ by at most a factor e^K, so the rescaled v is
    # in [e^-K, 1].  No product falls below e^-2K = e^-600, far above
    # the smallest normal float64 (about e^-708), and none exceeds m e^K.
    u, v = _scalings(np.exp(-(cost - cmin) / eps), _DUAL_SWEEPS)
    return eps * np.log(u) + cmin, eps * np.log(v)


def _warm_reduction(cost: np.ndarray, g: np.ndarray, span):
    """cost - f - g and g for potentials swept from a warm g, or None.

    A row c-transform of g, then a column one, leave a nonnegative
    reduced cost with a zero in every row and every column, so every
    kernel row and column holds an entry exp(0) = 1 whatever g was.
    Sweeps at the sharper epsilon = span / _WARM_SPAN polish from there.
    Far entries of that kernel may underflow to 0; None says that g or
    the potentials swept from it are not finite.
    """
    if not np.isfinite(g).all():
        return None
    # Potentials matter only up to a constant, and the c-transforms leave
    # g a spread of at most span.  Shifted to max 0 and clipped there, a
    # stale or huge g keeps cost - g on the cost's own scale, so it costs
    # no digits of the cost.
    g = np.maximum(g - g.max(), -span)
    red = cost - g[None, :]
    f = red.min(axis=1)
    red -= f[:, None]
    shift = red.min(axis=0)
    red -= shift[None, :]
    eps = span / _WARM_SPAN
    kernel = red / -eps
    np.exp(kernel, out=kernel)
    # Underflowed kernel entries can drive a scaling to 0 or infinity;
    # the check below catches that.
    with np.errstate(all="ignore"):
        u, v = _scalings(kernel, _WARM_SWEEPS)
        du = eps * np.log(u)
        dv = eps * np.log(v)
    if not (np.isfinite(du).all() and np.isfinite(dv).all()):
        return None
    red -= du[:, None]
    red -= dv[None, :]
    return red, g + shift + dv


def reduced_cost(cost: np.ndarray, g: np.ndarray | None = None):
    """(cost - f[:, None] - g[None, :], g) for entropic dual potentials f, g.

    Every permutation's total moves by the same sum(f) + sum(g), so the
    reduced cost has the same optimal assignments as cost.  Any finite
    potentials keep that; the closer they are to the optimal duals, the
    less work is left to an exact solver.  g, when given, is the column
    potential of an earlier, similar cost (the last Frank-Wolfe
    gradient) and warm-starts the sweeps; without it, or when the warm
    potentials come out non-finite, the sweeps start cold.  The returned
    g is the new column potential.  The reduced cost is always a new
    array, so the caller may overwrite it; a cost with span 0 comes back
    as a copy, with the g it was given.
    """
    cmin = cost.min()
    span = cost.max() - cmin
    if not span > 0.0:
        return cost.copy(), g
    if g is not None:
        warm = _warm_reduction(cost, g, span)
        if warm is not None:
            return warm
    f, g = _cold_potentials(cost, cmin, span)
    return cost - f[:, None] - g[None, :], g

"""Exact linear assignment.

``solve_lap`` delegates to scipy's Jonker-Volgenant implementation; the
tests cross-check it against an independent brute-force enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .linalg import as_matrix

__all__ = ["Permutation", "solve_lap", "max_trace_matching"]


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

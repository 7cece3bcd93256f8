"""Closed-form orthogonal Procrustes fitting.

Given two row-matched point sets x and y, the orthogonal matrix minimizing
||x @ Q - y||_F^2 is Q = U V' where U S V' is the SVD of x'y.  The optimum
covers all of O(d), reflections included; restricting to rotations is a
different problem and not done here.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateFitError, InvalidArgumentError
from .linalg import OrthogonalMap, _polar, as_matrix

__all__ = ["fit_orthogonal"]

# Relative cutoff deciding when a singular value of x'y counts as zero.
_RANK_RTOL = 1e-12


def fit_orthogonal(x, y) -> OrthogonalMap:
    """Best orthogonal map from the rows of x onto the rows of y.

    Parameters
    ----------
    x, y : (n, d) array_like
        Matched point sets; row i of x corresponds to row i of y.

    Returns
    -------
    OrthogonalMap
        The minimizer of ||x @ Q - y||_F^2 over orthogonal Q.

    Raises
    ------
    DegenerateFitError
        If x'y is rank deficient; the minimizer is then not unique and
        silently completing it would hide a degenerate problem.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape != y.shape:
        raise InvalidArgumentError(f"shape mismatch: x {x.shape} vs y {y.shape}")
    n, d = x.shape
    if n < d:
        warnings.warn(
            f"fitting a {d}x{d} orthogonal map from only {n} correspondences; "
            "the problem is underdetermined",
            stacklevel=2,
        )
    q, s = _polar(x.T @ y)
    rank = int(np.count_nonzero(s > _RANK_RTOL * s[0])) if s[0] > 0 else 0
    if rank < d:
        raise DegenerateFitError(
            f"cross-covariance x'y has rank {rank} of {d}; the optimal "
            "orthogonal map is not unique"
        )
    return OrthogonalMap(q=q)

"""Dense matrix kernel: SVD, orthogonal projection, and PCA.

Everything operates on float64 numpy arrays.  The SVD is delegated to LAPACK
but wrapped with a deterministic column-sign convention so that downstream
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProjectionError, InvalidArgumentError, InvalidInputError

__all__ = [
    "OrthogonalMap",
    "SvdResult",
    "as_matrix",
    "svd",
    "project_orthogonal",
    "pca_project",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ v.T`` with ``s`` sorted descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class OrthogonalMap:
    """A square orthogonal matrix; validates ``q.T @ q = I`` on construction."""

    q: np.ndarray
    _ATOL: float = field(default=1e-8, repr=False)

    def __post_init__(self):
        q = as_matrix(self.q, "orthogonal map")
        if q.shape[0] != q.shape[1]:
            raise InvalidInputError(f"orthogonal map must be square, got {q.shape}")
        err = np.linalg.norm(q.T @ q - np.eye(q.shape[0]))
        if err > self._ATOL:
            raise InvalidInputError(
                f"matrix is not orthogonal: ||q'q - I||_F = {err:.3e}"
            )
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def svd(m) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    The sign of each column pair (u_j, v_j) is fixed so that the
    largest-magnitude entry of u_j is positive; ties resolve to the lowest
    row index.  Singular values come back sorted descending (LAPACK order).
    """
    m = as_matrix(m)
    if min(m.shape) < 1:
        raise InvalidInputError("matrix must have at least one row and column")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    v = vh.T.copy()
    u = u.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdResult(u=u, s=s, v=v)


def project_orthogonal(m) -> OrthogonalMap:
    """Nearest orthogonal matrix in Frobenius norm (polar factor ``u @ v.T``).

    Raises
    ------
    DegenerateProjectionError
        If ``m`` is rank deficient (any singular value <= 1e-12), in which
        case the nearest orthogonal matrix is not unique.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"projection needs a square matrix, got {m.shape}")
    r = svd(m)
    if r.s[-1] <= 1e-12:
        raise DegenerateProjectionError(
            f"rank-deficient input (smallest singular value {r.s[-1]:.3e}); "
            "nearest orthogonal matrix is ambiguous"
        )
    return OrthogonalMap(q=r.u @ r.v.T)


def pca_project(x, k: int) -> np.ndarray:
    """Project rows of ``x`` onto the top-``k`` principal directions.

    Data is column-centered first; the returned scores are ``n x k``.
    """
    x = as_matrix(x)
    n, d = x.shape
    if n < 2:
        raise InvalidInputError("PCA needs at least 2 rows")
    if k > d:
        raise InvalidArgumentError(f"k={k} exceeds dimension d={d}")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    centered = x - x.mean(axis=0)
    r = svd(centered)
    return centered @ r.v[:, :k]

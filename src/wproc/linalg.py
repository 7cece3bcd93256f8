"""Dense matrix kernel: orthogonal projection and PCA.

Everything operates on float64 numpy arrays.  SVDs are delegated to
LAPACK.  PCA scores take a deterministic sign per component so they are
reproducible bit for bit; polar factors need no convention, since they
do not depend on the signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProjectionError, InvalidArgumentError, InvalidInputError

__all__ = [
    "OrthogonalMap",
    "as_matrix",
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of a real matrix.

    The bits of ``np.linalg.norm(x, axis=1)``, which on real input sums
    ``x.conj() * x``, without the conjugate copy.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1))


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


def _polar(m: np.ndarray):
    """The polar factor ``u @ v.T`` of a square m, and its singular values.

    No sign convention is needed: flipping a column pair (u_j, v_j)
    negates both factors of each of its products, which is exact.  The
    right operand is passed in Fortran order, the layout of ``v.T`` for a
    C-ordered ``v``, because BLAS can round ``u @ vh`` differently when vh
    is C-ordered (at d=20 and d=50, not at d=300).
    """
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u @ np.asfortranarray(vh), s


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
    q, s = _polar(m)
    if s[-1] <= 1e-12:
        raise DegenerateProjectionError(
            f"rank-deficient input (smallest singular value {s[-1]:.3e}); "
            "nearest orthogonal matrix is ambiguous"
        )
    return OrthogonalMap(q=q)


def pca_project(x, k: int) -> np.ndarray:
    """Project rows of ``x`` onto the top-``k`` principal directions.

    Data is column-centered first; the returned scores are ``n x k``.
    Each component takes the sign that makes the largest-magnitude entry
    of its left singular vector positive, ties going to the lowest row, so
    the largest-magnitude score of each column is positive (up to
    rounding) and the scores are reproducible bit for bit.
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
    u, _, vh = np.linalg.svd(centered, full_matrices=False)
    # Column j of the scores is s_j u_j.  The bits depend on the right
    # operand being a slice of v's C-ordered copy.
    v = vh.T.copy()
    for j in range(k):
        if u[int(np.argmax(np.abs(u[:, j]))), j] < 0:
            v[:, j] = -v[:, j]
    return centered @ v[:, :k]

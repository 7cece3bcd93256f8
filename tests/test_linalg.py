"""SVD sign convention, orthogonal projection, and PCA checks."""

import numpy as np
import pytest

from wproc.errors import (
    DegenerateProjectionError,
    InvalidArgumentError,
    InvalidInputError,
)
from wproc.linalg import (
    OrthogonalMap,
    as_matrix,
    pca_project,
    project_orthogonal,
    svd,
)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones(3))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf, 1.0]]))


def reconstruct(r):
    return (r.u * r.s) @ r.v.T


def test_svd_reconstructs_and_orders():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((7, 5))
        r = svd(m)
        assert np.allclose(reconstruct(r), m, atol=1e-12)
        assert np.all(np.diff(r.s) <= 1e-15)


def test_svd_sign_convention():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r = svd(rng.standard_normal((6, 4)))
        for j in range(r.u.shape[1]):
            i = int(np.argmax(np.abs(r.u[:, j])))
            assert r.u[i, j] > 0


def test_svd_deterministic():
    m = np.random.default_rng(2).standard_normal((8, 8))
    a = svd(m)
    b = svd(m)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.v, b.v)


def test_project_orthogonal_fixes_orthogonal_input():
    rng = np.random.default_rng(3)
    for d in (2, 5, 11):
        q = random_orthogonal(rng, d)
        p = project_orthogonal(q)
        assert np.allclose(p.q, q, atol=1e-12)


def test_project_orthogonal_matches_polar_oracle():
    # Polar factor via eigendecomposition of m'm, computed independently.
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        w, v = np.linalg.eigh(m.T @ m)
        inv_sqrt = (v / np.sqrt(w)) @ v.T
        want = m @ inv_sqrt
        got = project_orthogonal(m).q
        assert np.allclose(got, want, atol=1e-10)


def test_project_orthogonal_is_nearest():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    q = project_orthogonal(m).q
    base = np.linalg.norm(m - q)
    for _ in range(200):
        other = random_orthogonal(rng, 5)
        assert base <= np.linalg.norm(m - other) + 1e-12


def test_project_orthogonal_rejects_rank_deficient():
    m = np.ones((4, 4))
    with pytest.raises(DegenerateProjectionError):
        project_orthogonal(m)


def test_project_orthogonal_rejects_non_square():
    with pytest.raises(InvalidInputError):
        project_orthogonal(np.ones((3, 4)))


def test_orthogonal_map_validates():
    with pytest.raises(InvalidInputError):
        OrthogonalMap(q=np.array([[1.0, 0.1], [0.0, 1.0]]))
    m = OrthogonalMap(q=np.eye(3))
    assert m.dim == 3


def test_pca_project_matches_svd_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 7)) * np.array([5, 3, 2, 1, 0.5, 0.2, 0.1])
    got = pca_project(x, 3)
    centered = x - x.mean(axis=0)
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    want = centered @ vh[:3].T
    # Signs are convention-dependent; compare column by column.
    for j in range(3):
        assert np.allclose(got[:, j], want[:, j], atol=1e-10) or np.allclose(
            got[:, j], -want[:, j], atol=1e-10
        )
    variances = got.var(axis=0)
    assert variances[0] >= variances[1] >= variances[2]


def test_pca_project_bounds():
    x = np.random.default_rng(7).standard_normal((10, 3))
    with pytest.raises(InvalidArgumentError):
        pca_project(x, 4)
    with pytest.raises(InvalidArgumentError):
        pca_project(x, 0)
    with pytest.raises(InvalidInputError):
        pca_project(x[:1], 1)

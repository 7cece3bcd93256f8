"""Orthogonal projection, and PCA's sign convention and bits."""

import numpy as np
import pytest

from oracles import svd
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


def test_pca_project_reconstructs_and_orders():
    # With every component kept the scores are the centered rows in an
    # orthonormal basis, ordered by variance.
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal((7, 5))
        centered = x - x.mean(axis=0)
        got = pca_project(x, 5)
        assert np.allclose(got @ got.T, centered @ centered.T, atol=1e-12)
        assert np.all(np.diff(got.var(axis=0)) <= 1e-15)


def test_pca_project_sign_convention():
    rng = np.random.default_rng(1)
    for _ in range(20):
        got = pca_project(rng.standard_normal((6, 4)), 3)
        for j in range(got.shape[1]):
            i = int(np.argmax(np.abs(got[:, j])))
            assert got[i, j] > 0


def test_pca_project_deterministic():
    m = np.random.default_rng(2).standard_normal((8, 8))
    assert pca_project(m, 8).tobytes() == pca_project(m, 8).tobytes()


@pytest.mark.parametrize("n, d, k", [(2, 1, 1), (40, 7, 3), (300, 20, 2),
                                     (500, 50, 50), (400, 300, 2)])
def test_pca_project_keeps_the_bits_of_the_signed_svd(n, d, k):
    x = np.random.default_rng(d).standard_normal((n, d))
    centered = x - x.mean(axis=0)
    want = centered @ svd(centered).v[:, :k]
    assert pca_project(x, k).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("d", [2, 7, 20, 50, 300])
def test_project_orthogonal_keeps_the_bits_of_the_signed_svd(d):
    # The sign convention cancels in u @ v.T; at d=20 and d=50 the bits
    # also depend on passing v.T in its Fortran-order layout.
    m = np.random.default_rng(d).standard_normal((d, d))
    r = svd(m)
    assert project_orthogonal(m).q.tobytes() == (r.u @ r.v.T).tobytes()


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

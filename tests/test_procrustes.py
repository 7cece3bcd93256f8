"""Orthogonal fitting: exact recovery, optimality, equivariance."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wproc.errors import DegenerateFitError, InvalidArgumentError
from wproc.procrustes import fit_orthogonal


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def test_exact_recovery():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.standard_normal((50, 6))
        r = random_orthogonal(rng, 6)
        q = fit_orthogonal(x, x @ r)
        assert np.linalg.norm(q.q - r) < 1e-10


def test_recovers_reflections():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 4))
    r = random_orthogonal(rng, 4)
    if np.linalg.det(r) > 0:
        r = r.copy()
        r[:, 0] = -r[:, 0]
    assert np.linalg.det(r) < 0
    q = fit_orthogonal(x, x @ r)
    assert np.linalg.norm(q.q - r) < 1e-10


def test_optimal_among_sampled_orthogonals():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 5))
    y = rng.standard_normal((30, 5))

    def residual(q):
        return ((x @ q.q - y) ** 2).sum()

    best = residual(fit_orthogonal(x, y))
    for _ in range(1000):
        other = fit_orthogonal(np.eye(5), random_orthogonal(rng, 5))
        assert best <= residual(other) + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_equivariance_under_target_rotation(seed):
    # If y is replaced by y @ R the fit becomes Q @ R, because the
    # objective only sees the composition.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((25, 4))
    y = rng.standard_normal((25, 4))
    r = random_orthogonal(rng, 4)
    q1 = fit_orthogonal(x, y)
    q2 = fit_orthogonal(x, y @ r)
    assert np.linalg.norm(q2.q - q1.q @ r) < 1e-9


def test_rank_deficient_cross_covariance_raises():
    x = np.zeros((10, 3))
    x[:, 0] = np.arange(10.0)
    y = x.copy()
    with pytest.raises(DegenerateFitError) as err:
        fit_orthogonal(x, y)
    assert "rank 1 of 3" in str(err.value)


def test_underdetermined_warns_then_raises():
    # With n < d the cross-covariance cannot reach full rank, so the fit
    # warns about the underdetermined system and then refuses it.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    r = random_orthogonal(rng, 5)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateFitError):
            fit_orthogonal(x, x @ r)
    assert any("underdetermined" in str(m.message) for m in w)


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        fit_orthogonal(np.ones((4, 2)), np.ones((5, 2)))

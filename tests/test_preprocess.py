"""Normalization step parsing and application order."""

import numpy as np
import pytest

from wproc.errors import InvalidArgumentError, InvalidInputError
from wproc.preprocess import preprocess


def test_parse_aliases_and_order():
    x = np.random.default_rng(3).standard_normal((20, 5)) + 1.0
    assert np.array_equal(preprocess(x, "norm, center ,unit_norm"),
                          preprocess(x, "norm,center,norm"))
    assert np.array_equal(preprocess(x, "Unit-Norm,,CENTRE"),
                          preprocess(x, "norm,center"))


def test_parse_rejects_unknown_and_empty():
    x = np.ones((2, 2))
    with pytest.raises(InvalidArgumentError, match="unknown preprocessing step 'scale'"):
        preprocess(x, "norm,scale")
    with pytest.raises(InvalidArgumentError, match="empty preprocessing spec"):
        preprocess(x, " , ")
    with pytest.raises(InvalidArgumentError, match="empty preprocessing spec"):
        preprocess(x, "")


def test_default_is_norm_center_norm():
    x = np.random.default_rng(4).standard_normal((15, 4)) + 3.0
    assert np.array_equal(preprocess(x), preprocess(x, "norm,center,norm"))
    for fewer in ("center,norm", "norm,center", "norm,norm"):
        assert not np.allclose(preprocess(x), preprocess(x, fewer))


def test_unit_norm_rows():
    x = np.array([[3.0, 4.0], [0.5, 0.0]])
    out = preprocess(x, "norm")
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)
    assert np.allclose(out[0], [0.6, 0.8])


def test_center_removes_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 4)) + 7.0
    out = preprocess(x, "center")
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)


def test_default_pipeline_composition():
    # Applying steps manually must equal the packaged pipeline.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((25, 6)) + 2.0
    manual = x / np.linalg.norm(x, axis=1)[:, None]
    manual = manual - manual.mean(axis=0)
    manual = manual / np.linalg.norm(manual, axis=1)[:, None]
    assert np.array_equal(preprocess(x), manual)
    assert np.allclose(np.linalg.norm(preprocess(x), axis=1), 1.0)


def test_zero_row_error_names_label():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError) as err:
        preprocess(x, "norm", labels=["alpha", "beta"])
    assert "beta" in str(err.value)
    with pytest.raises(InvalidInputError) as err:
        preprocess(x, "norm")
    assert "row 1" in str(err.value)


def test_input_not_mutated():
    x = np.random.default_rng(2).standard_normal((6, 3))
    before = x.copy()
    preprocess(x)
    assert np.array_equal(x, before)

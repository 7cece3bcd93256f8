"""Embedding normalization applied before alignment.

Two primitive steps, composed in a caller-chosen order: unit-norm divides
each row by its Euclidean length, center subtracts the per-column mean.
The default pipeline is unit-norm, center, unit-norm so the output has both
unit rows (required by inverted-softmax scoring) and, before the final
renormalization, zero mean.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .linalg import _row_norms, as_matrix

__all__ = ["preprocess"]

# Every accepted spelling of a step, and the step it names.
_STEPS = {
    "norm": "unit-norm",
    "unit-norm": "unit-norm",
    "unit_norm": "unit-norm",
    "center": "center",
    "centre": "center",
}


def _parse_steps(text: str) -> list:
    """The steps of a comma list like ``"norm,center,norm"``, in order."""
    tokens = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not tokens:
        raise InvalidArgumentError("empty preprocessing spec")
    for t in tokens:
        if t not in _STEPS:
            raise InvalidArgumentError(
                f"unknown preprocessing step {t!r}; expected one of norm, center"
            )
    return [_STEPS[t] for t in tokens]


def _unit_norm(x: np.ndarray, labels):
    """Divide each row of x by its length, in place."""
    norms = _row_norms(x)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        i = int(bad[0])
        name = labels[i] if labels is not None else f"row {i}"
        raise InvalidInputError(f"cannot unit-normalize zero vector at {name}")
    x /= norms[:, None]


def preprocess(x, steps: str = "norm,center,norm", labels=None) -> np.ndarray:
    """Apply the normalization steps in order; returns a new array.

    Parameters
    ----------
    x : (n, d) array_like
    steps : str
        Comma list of ``norm`` (also ``unit-norm``, ``unit_norm``) and
        ``center`` (also ``centre``), in any case; blank entries are
        skipped.  Defaults to unit-norm, center, unit-norm.
    labels : sequence of str, optional
        Row names used in error messages when a zero-norm row is hit.
    """
    steps = _parse_steps(steps)
    out = as_matrix(x, "embeddings").copy()
    for step in steps:
        if step == "unit-norm":
            _unit_norm(out, labels)
        else:
            out -= out.mean(axis=0)
    return out

"""Embedding normalization applied before alignment.

Two primitive steps, composed in a caller-chosen order: unit-norm divides
each row by its Euclidean length, center subtracts the per-column mean.
The default pipeline is unit-norm, center, unit-norm so the output has both
unit rows (required by inverted-softmax scoring) and, before the final
renormalization, zero mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .linalg import _row_norms, as_matrix

__all__ = ["STEP_UNIT_NORM", "STEP_CENTER", "PreprocessSpec", "preprocess"]

STEP_UNIT_NORM = "unit-norm"
STEP_CENTER = "center"

_ALIASES = {
    "norm": STEP_UNIT_NORM,
    "unit-norm": STEP_UNIT_NORM,
    "unit_norm": STEP_UNIT_NORM,
    "center": STEP_CENTER,
    "centre": STEP_CENTER,
}


@dataclass(frozen=True)
class PreprocessSpec:
    """Ordered list of normalization steps."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise InvalidArgumentError("preprocessing spec must have at least one step")
        for s in steps:
            if s not in (STEP_UNIT_NORM, STEP_CENTER):
                raise InvalidArgumentError(f"unknown preprocessing step {s!r}")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def parse(cls, text: str) -> "PreprocessSpec":
        """Parse a comma list like ``"norm,center,norm"``."""
        tokens = [t.strip().lower() for t in text.split(",") if t.strip()]
        if not tokens:
            raise InvalidArgumentError("empty preprocessing spec")
        steps = []
        for t in tokens:
            if t not in _ALIASES:
                raise InvalidArgumentError(
                    f"unknown preprocessing step {t!r}; expected one of "
                    "norm, center"
                )
            steps.append(_ALIASES[t])
        return cls(tuple(steps))

    @classmethod
    def default(cls) -> "PreprocessSpec":
        return cls((STEP_UNIT_NORM, STEP_CENTER, STEP_UNIT_NORM))


def _unit_norm(x: np.ndarray, labels):
    """Divide each row of x by its length, in place."""
    norms = _row_norms(x)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        i = int(bad[0])
        name = labels[i] if labels is not None else f"row {i}"
        raise InvalidInputError(f"cannot unit-normalize zero vector at {name}")
    x /= norms[:, None]


def preprocess(x, spec: PreprocessSpec | None = None, labels=None) -> np.ndarray:
    """Apply the normalization steps in order; returns a new array.

    Parameters
    ----------
    x : (n, d) array_like
    spec : PreprocessSpec, optional
        Defaults to unit-norm, center, unit-norm.
    labels : sequence of str, optional
        Row names used in error messages when a zero-norm row is hit.
    """
    if spec is None:
        spec = PreprocessSpec.default()
    out = as_matrix(x, "embeddings").copy()
    for step in spec.steps:
        if step == STEP_UNIT_NORM:
            _unit_norm(out, labels)
        else:
            out -= out.mean(axis=0)
    return out

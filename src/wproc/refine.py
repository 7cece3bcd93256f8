"""Iterative refinement of an orthogonal map.

Alternates two steps, in the spirit of iterative closest point: induce a
dictionary of mutual nearest neighbors between the mapped source set and
the target set under the locally-rescaled similarity, then re-fit the
orthogonal map by Procrustes on those pairs.  Mutual agreement filters
most wrong matches, so each epoch tightens the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyResultError, InvalidArgumentError
from .linalg import OrthogonalMap, as_matrix
from .procrustes import fit_orthogonal
from .retrieval import KIND_CSLS, _scored_blocks

__all__ = ["RefineResult", "mutual_nn_dictionary", "refine"]

# Mutual-NN search over the full vocabulary is wasteful; frequent rows
# are better anchors, so the dictionary pool defaults to the top 20000.
_DICT_POOL_DEFAULT = 20000


@dataclass(frozen=True)
class RefineResult:
    """Final map plus the per-epoch dictionary sizes and a status.

    status is "completed" after the requested epochs, or
    "empty-dictionary" when an epoch induced no mutual pairs and the
    partial result was returned.  epochs_fitted counts the Procrustes
    fits, fewer than the epochs once the map reached its fixed point.
    """

    q: OrthogonalMap
    dictionary_sizes: tuple
    status: str
    epochs_fitted: int


def _check_counts(csls_k: int, candidate_cap: int):
    if csls_k < 1:
        raise InvalidArgumentError("csls_k must be at least 1")
    if candidate_cap < 1:
        raise InvalidArgumentError("candidate_cap must be at least 1")


def mutual_nn_dictionary(
    x_mapped, y, csls_k: int = 10, candidate_cap: int = _DICT_POOL_DEFAULT
) -> np.ndarray:
    """Pairs (i, j) that are each other's best match under CSLS.

    Returned as a (k, 2) int64 array of (source row, target row), sources
    ascending.  Scored over the first candidate_cap rows of each set,
    with csls_k clamped to both set sizes.  The CSLS matrix is symmetric
    in its two penalty terms, so the backward direction is its transpose
    and one matrix serves both argmaxes.
    """
    _check_counts(csls_k, candidate_cap)
    xs = as_matrix(x_mapped, "mapped source")[:candidate_cap]
    ys = as_matrix(y, "target")[:candidate_cap]
    if xs.shape[1] != ys.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: mapped source d={xs.shape[1]}, target d={ys.shape[1]}"
        )
    ns, nt = xs.shape[0], ys.shape[0]
    k = min(csls_k, ns, nt)

    # Row argmax directly, column argmax as a running best: a column's
    # index is the first row of the chunk that attains its maximum.
    # Chunks ascend and argmax takes the first maximum, so ties resolve
    # to the lowest index in both directions.
    fwd = np.empty(ns, dtype=np.int64)
    col_best = np.full(nt, -np.inf)
    bwd = np.zeros(nt, dtype=np.int64)
    for lo, hi, s in _scored_blocks(xs, ys, KIND_CSLS, k, None,
                                    ("source", "target")):
        fwd[lo:hi] = np.argmax(s, axis=1)
        blk_best = s.max(axis=0)
        update = np.flatnonzero(blk_best > col_best)
        bwd[update] = lo + np.argmax((s == blk_best)[:, update], axis=0)
        col_best[update] = blk_best[update]

    src = np.flatnonzero(bwd[fwd] == np.arange(ns))
    if src.size == 0:
        raise EmptyResultError("no mutual nearest neighbors; cannot refine")
    return np.column_stack((src, fwd[src]))


def refine(
    x,
    y,
    q: OrthogonalMap,
    epochs: int = 5,
    csls_k: int = 10,
    candidate_cap: int = _DICT_POOL_DEFAULT,
) -> RefineResult:
    """Alternate dictionary induction and Procrustes re-fitting.

    Each epoch builds the mutual-NN dictionary from x @ q against y and
    replaces q by the orthogonal fit on the dictionary rows; csls_k and
    candidate_cap are passed to mutual_nn_dictionary.  If an epoch
    yields no pairs, the result so far is returned with status
    "empty-dictionary".  Once an epoch induces the dictionary of the one
    before, the map is a fixed point: every later epoch would fit the
    same pairs to the same map, so the run stops and repeats that
    dictionary's size for them.
    """
    if epochs < 1:
        raise InvalidArgumentError("epochs must be at least 1")
    _check_counts(csls_k, candidate_cap)
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1] or x.shape[1] != q.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: x {x.shape[1]}, y {y.shape[1]}, q {q.dim}"
        )
    sizes, last = [], None
    for _ in range(epochs):
        try:
            d = mutual_nn_dictionary(x @ q.q, y, csls_k, candidate_cap)
        except EmptyResultError:
            return RefineResult(q=q, dictionary_sizes=tuple(sizes),
                                status="empty-dictionary", epochs_fitted=len(sizes))
        if last is not None and np.array_equal(d, last):
            break
        q = fit_orthogonal(x[d[:, 0]], y[d[:, 1]])
        sizes.append(len(d))
        last = d
    fitted = len(sizes)
    sizes += [len(last)] * (epochs - fitted)
    return RefineResult(q=q, dictionary_sizes=tuple(sizes), status="completed",
                        epochs_fitted=fitted)

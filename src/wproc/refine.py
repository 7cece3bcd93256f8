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
from .retrieval import KIND_CSLS, RetrievalConfig, _scored_blocks

__all__ = ["SeedDictionary", "RefineResult", "mutual_nn_dictionary", "refine"]

# Mutual-NN search over the full vocabulary is wasteful; frequent rows
# are better anchors, so the dictionary pool defaults to the top 20000.
_DICT_POOL_DEFAULT = 20000


@dataclass(frozen=True)
class SeedDictionary:
    """Induced correspondence pairs (source index, target index)."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        sources = [i for i, _ in pairs]
        if len(set(sources)) != len(sources):
            raise InvalidArgumentError("duplicate source index in dictionary")
        if any(i < 0 or j < 0 for i, j in pairs):
            raise InvalidArgumentError("negative index in dictionary")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def sources(self) -> np.ndarray:
        return np.array([i for i, _ in self.pairs], dtype=np.int64)

    @property
    def targets(self) -> np.ndarray:
        return np.array([j for _, j in self.pairs], dtype=np.int64)


@dataclass(frozen=True)
class RefineResult:
    """Final map plus the per-epoch dictionary sizes and a status.

    status is "completed" after the requested epochs, or
    "empty-dictionary" when an epoch induced no mutual pairs and the
    partial result was returned.
    """

    q: OrthogonalMap
    dictionary_sizes: tuple
    status: str


def default_refine_config() -> RetrievalConfig:
    return RetrievalConfig(candidate_cap=_DICT_POOL_DEFAULT)


def mutual_nn_dictionary(
    x_mapped, y, cfg: RetrievalConfig | None = None
) -> SeedDictionary:
    """Pairs (i, j) that are each other's best match under CSLS.

    Scored over the first candidate_cap rows of each set, always with
    CSLS whatever cfg.kind says, and with csls_k clamped to both set
    sizes.  The CSLS matrix is symmetric in its two penalty terms, so
    the backward direction is its transpose and one matrix serves both
    argmaxes.
    """
    if cfg is None:
        cfg = default_refine_config()
    xs = as_matrix(x_mapped, "mapped source")[: cfg.candidate_cap]
    ys = as_matrix(y, "target")[: cfg.candidate_cap]
    if xs.shape[1] != ys.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: mapped source d={xs.shape[1]}, target d={ys.shape[1]}"
        )
    ns, nt = xs.shape[0], ys.shape[0]
    k = min(cfg.csls_k, ns, nt)

    # Row argmax directly, column argmax as a running best.  Blocks
    # ascend and argmax takes the first maximum, so ties resolve to the
    # lowest index in both directions.
    fwd = np.empty(ns, dtype=np.int64)
    col_best = np.full(nt, -np.inf)
    bwd = np.zeros(nt, dtype=np.int64)
    for lo, hi, s in _scored_blocks(xs, ys, KIND_CSLS, k, cfg.isf_beta,
                                    ("source", "target")):
        fwd[lo:hi] = np.argmax(s, axis=1)
        blk_best = s.max(axis=0)
        update = blk_best > col_best
        bwd[update] = lo + np.argmax(s[:, update], axis=0)
        col_best[update] = blk_best[update]

    src = np.flatnonzero(bwd[fwd] == np.arange(ns))
    if src.size == 0:
        raise EmptyResultError("no mutual nearest neighbors; cannot refine")
    pairs = tuple((int(i), int(fwd[i])) for i in src)
    return SeedDictionary(pairs=pairs)


def refine(
    x,
    y,
    q: OrthogonalMap,
    epochs: int = 5,
    cfg: RetrievalConfig | None = None,
) -> RefineResult:
    """Alternate dictionary induction and Procrustes re-fitting.

    Each epoch builds the mutual-NN dictionary from x @ q against y and
    replaces q by the orthogonal fit on the dictionary rows.  If an
    epoch yields no pairs, the result so far is returned with status
    "empty-dictionary".
    """
    if epochs < 1:
        raise InvalidArgumentError("epochs must be at least 1")
    if cfg is None:
        cfg = default_refine_config()
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1] or x.shape[1] != q.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: x {x.shape[1]}, y {y.shape[1]}, q {q.dim}"
        )
    sizes = []
    for _ in range(epochs):
        try:
            d = mutual_nn_dictionary(x @ q.q, y, cfg)
        except EmptyResultError:
            return RefineResult(q=q, dictionary_sizes=tuple(sizes), status="empty-dictionary")
        sizes.append(len(d))
        q = fit_orthogonal(x[d.sources], y[d.targets])
    return RefineResult(q=q, dictionary_sizes=tuple(sizes), status="completed")

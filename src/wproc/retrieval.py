"""Similarity scoring and translation retrieval.

Plain cosine retrieval suffers from hubness: a few target vectors end up
nearest neighbor to a large share of queries.  Two corrections are
provided.  CSLS subtracts from each similarity the mean cosine of both
endpoints to their cross-set nearest neighbors, demoting points that are
close to everything.  Inverted softmax normalizes a target's affinity
over the whole query set, so a hub's mass is spread thin.

Score matrices are computed in query blocks so peak memory stays
bounded at block_size x candidate_cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .linalg import as_matrix

__all__ = [
    "RetrievalConfig",
    "NeighborTable",
    "cosine_scores",
    "csls_scores",
    "isf_scores",
    "retrieve",
]

KIND_NN = "nn"
KIND_CSLS = "csls"
KIND_ISF = "isf"

_UNIT_NORM_ATOL = 1e-6


@dataclass(frozen=True)
class RetrievalConfig:
    """Retrieval settings.

    candidate_cap restricts scoring to the first that many target rows
    (frequency order), bounding both memory and hub exposure.
    """

    kind: str = KIND_CSLS
    csls_k: int = 10
    isf_beta: float = 25.0
    candidate_cap: int = 200000
    block_size: int = 1024

    def __post_init__(self):
        if self.kind not in (KIND_NN, KIND_CSLS, KIND_ISF):
            raise InvalidArgumentError(
                f"kind must be one of nn, csls, isf, got {self.kind!r}"
            )
        if self.csls_k < 1:
            raise InvalidArgumentError("csls_k must be at least 1")
        if not self.isf_beta > 0.0:
            raise InvalidArgumentError("isf_beta must be positive")
        if self.candidate_cap < 1:
            raise InvalidArgumentError("candidate_cap must be at least 1")
        if self.block_size < 1:
            raise InvalidArgumentError("block_size must be at least 1")


@dataclass(frozen=True)
class NeighborTable:
    """Top targets per query: indices and scores, best first.

    indices[i] are unique; scores[i] is non-increasing.
    """

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        sc = np.asarray(self.scores, dtype=np.float64)
        if idx.shape != sc.shape or idx.ndim != 2:
            raise InvalidArgumentError("indices and scores must be equal 2-D shapes")
        if idx.shape[1] > 1:
            if np.any(np.diff(sc, axis=1) > 0):
                raise InvalidArgumentError("scores must be sorted descending per query")
            srt = np.sort(idx, axis=1)
            if np.any(srt[:, 1:] == srt[:, :-1]):
                raise InvalidArgumentError("duplicate target index within a query")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scores", sc)

    @property
    def n_queries(self) -> int:
        return self.indices.shape[0]

    @property
    def depth(self) -> int:
        return self.indices.shape[1]


def _unit_rows(x: np.ndarray, side: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise InvalidInputError(f"zero-norm vector at {side} row {int(bad[0])}")
    return x / norms[:, None]


def _as_pair(queries, targets):
    """Queries and targets as matrices of equal width."""
    q = as_matrix(queries, "queries")
    t = as_matrix(targets, "targets")
    if q.shape[1] != t.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: queries d={q.shape[1]}, targets d={t.shape[1]}"
        )
    return q, t


def cosine_scores(queries, targets) -> np.ndarray:
    """Pairwise cosine similarities, entry (i, j) for query i, target j."""
    q, t = _as_pair(queries, targets)
    return _unit_rows(q, "query") @ _unit_rows(t, "target").T


def _top_k_row_means(scores: np.ndarray, k: int) -> np.ndarray:
    """Mean of the k largest entries of each row."""
    n = scores.shape[1]
    if k >= n:
        return scores.mean(axis=1)
    part = np.partition(scores, n - k, axis=1)[:, n - k :]
    return part.mean(axis=1)


def csls_scores(queries, targets, k: int) -> np.ndarray:
    """Locally rescaled cosine: 2 cos(i,j) - R_t(i) - R_q(j).

    R_t(i) is the mean cosine of query i to its k nearest targets and
    R_q(j) the mean cosine of target j to its k nearest queries, so
    points that are near everything get penalized in proportion.
    """
    cos = cosine_scores(queries, targets)
    nq, nt = cos.shape
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if k > nt or k > nq:
        raise InvalidArgumentError(
            f"k={k} exceeds set sizes (queries {nq}, targets {nt})"
        )
    r_t = _top_k_row_means(cos, k)
    r_q = _top_k_row_means(cos.T, k)
    return 2.0 * cos - r_t[:, None] - r_q[None, :]


def _check_unit(x: np.ndarray, side: str):
    norms = np.linalg.norm(x, axis=1)
    off = np.abs(norms - 1.0)
    if off.max() > _UNIT_NORM_ATOL:
        i = int(np.argmax(off))
        raise InvalidInputError(
            f"{side} row {i} is not unit-normalized (norm {norms[i]:.6f})"
        )


def isf_scores(queries, targets, beta: float) -> np.ndarray:
    """Inverted softmax: exp(beta q_i.t_j) normalized over the query set.

    Each column is a probability distribution over queries; a target
    close to many queries yields small individual entries.
    Requires unit-normalized inputs.
    """
    q, t = _as_pair(queries, targets)
    if not beta > 0.0:
        raise InvalidArgumentError("beta must be positive")
    _check_unit(q, "query")
    _check_unit(t, "target")
    z = beta * (q @ t.T)
    z = z - z.max(axis=0)
    e = np.exp(z)
    return e / e.sum(axis=0)


def _select_top(scores: np.ndarray, topk: int):
    """Per-row top-k indices and values, ties broken by lower index."""
    if topk == 1:
        idx = np.argmax(scores, axis=1)[:, None]  # argmax takes the first max
        return idx, np.take_along_axis(scores, idx, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :topk]
    return order, np.take_along_axis(scores, order, axis=1)


def _cos_blocks(qn: np.ndarray, tn: np.ndarray, size: int):
    """Yield (lo, hi, cosines of query rows lo:hi against every target)."""
    for lo in range(0, qn.shape[0], size):
        hi = min(lo + size, qn.shape[0])
        yield lo, hi, qn[lo:hi] @ tn.T


def _scored_blocks(q, t, kind: str, k: int, beta: float, block_size: int,
                   sides=("query", "target")):
    """Yield (lo, hi, scores of query rows lo:hi against every target).

    The one blocked scorer behind retrieval and dictionary induction.
    CSLS and ISF first take one pass over the query blocks to assemble
    their per-target statistics: the k best cosines of each target, or
    its log-sum-exp over all queries.  k must not exceed either set
    size under CSLS.  sides names the two sets in input errors.
    """
    qn = _unit_rows(q, sides[0])
    tn = _unit_rows(t, sides[1])
    if kind == KIND_CSLS:
        # Running per-target top-k cosine buffer across query blocks.
        buf = np.full((0, tn.shape[0]), -np.inf)
        for _, _, cos in _cos_blocks(qn, tn, block_size):
            buf = np.concatenate([buf, cos], axis=0)
            if buf.shape[0] > k:
                buf = -np.partition(-buf, k - 1, axis=0)[:k]
        r_q = buf.mean(axis=0)
    elif kind == KIND_ISF:
        # Running per-target log-sum-exp across query blocks.
        _check_unit(q, sides[0])
        _check_unit(t, sides[1])
        col_lse = np.full(tn.shape[0], -np.inf)
        for _, _, cos in _cos_blocks(qn, tn, block_size):
            z = beta * cos
            m = np.maximum(col_lse, z.max(axis=0))
            col_lse = (
                np.log(np.exp(col_lse - m) + np.exp(z - m).sum(axis=0)) + m
            )

    for lo, hi, cos in _cos_blocks(qn, tn, block_size):
        if kind == KIND_NN:
            yield lo, hi, cos
        elif kind == KIND_CSLS:
            yield lo, hi, 2.0 * cos - _top_k_row_means(cos, k)[:, None] - r_q[None, :]
        else:
            yield lo, hi, np.exp(beta * cos - col_lse[None, :])


def retrieve(queries, targets, cfg: RetrievalConfig | None = None, topk: int = 1) -> NeighborTable:
    """Top-scoring target indices per query under the configured scorer.

    Only the first cfg.candidate_cap target rows are searched.  Queries
    are processed in blocks; CSLS and ISF need one extra pass over the
    blocks to assemble their per-target statistics.
    """
    if cfg is None:
        cfg = RetrievalConfig()
    q, t = _as_pair(queries, targets)
    t = t[: cfg.candidate_cap]
    nq, nt = q.shape[0], t.shape[0]
    if topk < 1 or topk > nt:
        raise InvalidArgumentError(f"topk={topk} out of range for {nt} targets")
    if cfg.kind == KIND_CSLS and (cfg.csls_k > nt or cfg.csls_k > nq):
        raise InvalidArgumentError(
            f"csls_k={cfg.csls_k} exceeds set sizes (queries {nq}, targets {nt})"
        )
    out_idx = np.empty((nq, topk), dtype=np.int64)
    out_sc = np.empty((nq, topk))
    for lo, hi, s in _scored_blocks(q, t, cfg.kind, cfg.csls_k, cfg.isf_beta,
                                    cfg.block_size):
        out_idx[lo:hi], out_sc[lo:hi] = _select_top(s, topk)
    return NeighborTable(indices=out_idx, scores=out_sc)

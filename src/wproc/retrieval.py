"""Similarity scoring and translation retrieval.

Plain cosine retrieval suffers from hubness: a few target vectors end up
nearest neighbor to a large share of queries.  Two corrections are
provided.  CSLS subtracts from each similarity the mean cosine of both
endpoints to their cross-set nearest neighbors, demoting points that are
close to everything.  Inverted softmax normalizes a target's affinity
over the whole query set, so a hub's mass is spread thin.

Score matrices are computed in blocks of _BLOCK_SIZE query rows, so
peak memory stays bounded at _BLOCK_SIZE x candidate_cap.  This blocked
engine is the only scorer; the dense reference formulas live with the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .linalg import as_matrix

__all__ = ["RetrievalConfig", "NeighborTable", "retrieve"]

KIND_NN = "nn"
KIND_CSLS = "csls"
KIND_ISF = "isf"

_UNIT_NORM_ATOL = 1e-6

# Query rows per score block.
_BLOCK_SIZE = 1024


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


def _top_k_row_means(scores: np.ndarray, k: int) -> np.ndarray:
    """Mean of the k largest entries of each row."""
    n = scores.shape[1]
    if k >= n:
        return scores.mean(axis=1)
    part = np.partition(scores, n - k, axis=1)[:, n - k :]
    return part.mean(axis=1)


def _check_unit(x: np.ndarray, side: str):
    norms = np.linalg.norm(x, axis=1)
    off = np.abs(norms - 1.0)
    if off.max() > _UNIT_NORM_ATOL:
        i = int(np.argmax(off))
        raise InvalidInputError(
            f"{side} row {i} is not unit-normalized (norm {norms[i]:.6f})"
        )


def _select_top(scores: np.ndarray, topk: int):
    """Per-row top-k indices and values, ties broken by lower index.

    For topk > 1 the scores block is overwritten.
    """
    if topk == 1:
        idx = np.argmax(scores, axis=1)[:, None]  # argmax takes the first max
        return idx, np.take_along_axis(scores, idx, axis=1)
    # Ascending order of the negated block is descending order of the
    # scores; negation is exact, so the values come back unchanged.
    neg = np.negative(scores, out=scores)
    # Candidates in ascending index order, so the stable sort of their
    # values breaks ties by lower index.
    cand = np.sort(np.argpartition(neg, topk - 1, axis=1)[:, :topk], axis=1)
    vals = np.take_along_axis(neg, cand, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    idx = np.take_along_axis(cand, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    kth = vals[:, -1:]
    # Where the k-th value also occurs outside the candidates, the
    # partition may have kept a higher index than a tied one it left out:
    # those rows alone are sorted in full.
    tied = np.flatnonzero(np.count_nonzero(neg == kth, axis=1)
                          != np.count_nonzero(vals == kth, axis=1))
    if tied.size:
        rows = neg[tied]
        idx[tied] = np.argsort(rows, axis=1, kind="stable")[:, :topk]
        vals[tied] = np.take_along_axis(rows, idx[tied], axis=1)
    return idx, -vals


def _cos_blocks(qn: np.ndarray, tn: np.ndarray):
    """Yield (lo, hi, cosines of query rows lo:hi against every target)."""
    for lo in range(0, qn.shape[0], _BLOCK_SIZE):
        hi = min(lo + _BLOCK_SIZE, qn.shape[0])
        yield lo, hi, qn[lo:hi] @ tn.T


def _scored_blocks(q, t, kind: str, k: int, beta: float,
                   sides=("query", "target")):
    """Yield (lo, hi, scores of query rows lo:hi against every target).

    The one blocked scorer behind retrieval and dictionary induction.
    CSLS and ISF first take one pass over the query blocks to assemble
    their per-target statistics: the k best cosines of each target, or
    its log-sum-exp over all queries.  k must not exceed either set
    size under CSLS.  sides names the two sets in input errors.  Each
    block is a fresh array that the caller may overwrite.
    """
    qn = _unit_rows(q, sides[0])
    tn = _unit_rows(t, sides[1])
    if kind == KIND_CSLS:
        # Running per-target top-k cosine buffer across query blocks.
        buf = np.full((0, tn.shape[0]), -np.inf)
        for _, _, cos in _cos_blocks(qn, tn):
            buf = np.concatenate([buf, cos], axis=0)
            if buf.shape[0] > k:
                buf = -np.partition(-buf, k - 1, axis=0)[:k]
        r_q = buf.mean(axis=0)
    elif kind == KIND_ISF:
        # Running per-target log-sum-exp across query blocks.
        _check_unit(q, sides[0])
        _check_unit(t, sides[1])
        col_lse = np.full(tn.shape[0], -np.inf)
        for _, _, z in _cos_blocks(qn, tn):
            z *= beta
            m = np.maximum(col_lse, z.max(axis=0))
            z -= m
            np.exp(z, out=z)
            col_lse = np.log(np.exp(col_lse - m) + z.sum(axis=0)) + m

    for lo, hi, s in _cos_blocks(qn, tn):
        # In place on the fresh cosine block, in the order of
        # 2 cos - r_t - r_q and exp(beta cos - lse), so no score moves.
        if kind == KIND_CSLS:
            r_t = _top_k_row_means(s, k)
            s *= 2.0
            s -= r_t[:, None]
            s -= r_q[None, :]
        elif kind == KIND_ISF:
            s *= beta
            s -= col_lse[None, :]
            np.exp(s, out=s)
        yield lo, hi, s


def retrieve(queries, targets, cfg: RetrievalConfig | None = None, topk: int = 1,
             rows: int | None = None) -> NeighborTable:
    """Top-scoring target indices per query under the configured scorer.

    Only the first cfg.candidate_cap target rows are searched.  Queries
    are processed in blocks; CSLS and ISF need one extra pass over the
    blocks to assemble their per-target statistics.

    With rows, only the first rows queries are returned, and no block
    after theirs is scored.  Statistics still cover every query and the
    blocks are those of the unlimited call, so each returned row is
    bit-identical to its row there.
    """
    if cfg is None:
        cfg = RetrievalConfig()
    q, t = _as_pair(queries, targets)
    t = t[: cfg.candidate_cap]
    nq, nt = q.shape[0], t.shape[0]
    if topk < 1 or topk > nt:
        raise InvalidArgumentError(f"topk={topk} out of range for {nt} targets")
    if rows is not None and rows < 1:
        raise InvalidArgumentError(f"rows must be at least 1, got {rows}")
    if cfg.kind == KIND_CSLS and (cfg.csls_k > nt or cfg.csls_k > nq):
        raise InvalidArgumentError(
            f"csls_k={cfg.csls_k} exceeds set sizes (queries {nq}, targets {nt})"
        )
    n_out = nq if rows is None else min(rows, nq)
    out_idx = np.empty((n_out, topk), dtype=np.int64)
    out_sc = np.empty((n_out, topk))
    for lo, hi, s in _scored_blocks(q, t, cfg.kind, cfg.csls_k, cfg.isf_beta):
        hi = min(hi, n_out)
        out_idx[lo:hi], out_sc[lo:hi] = _select_top(s[: hi - lo], topk)
        if hi == n_out:
            break
    return NeighborTable(indices=out_idx, scores=out_sc)

"""Similarity scoring and translation retrieval.

Plain cosine retrieval suffers from hubness: a few target vectors end up
nearest neighbor to a large share of queries.  Two corrections are
provided.  CSLS subtracts from each similarity the mean cosine of both
endpoints to their cross-set nearest neighbors, demoting points that are
close to everything.  Inverted softmax normalizes a target's affinity
over the whole query set, so a hub's mass is spread thin.

Score matrices are computed in blocks of _BLOCK_SIZE query rows, and
each block is finished and handed on in chunks of _CHUNK rows while the
chunk is in cache.  The per-target statistics of CSLS and inverted
softmax come from blocks of target rows against every query, sized to
hold about as many cosines as a score block.  No block of a set of two
or more rows holds one row (_row_blocks), so a row's bits do not depend
on the set's size.  Working memory beyond the unit-normalized inputs is
thus one block of _BLOCK_SIZE (or one more) rows x n_targets plus one
_CHUNK x n_targets scratch and a consumer's chunk-sized temporaries,
whichever set is larger.  This blocked engine is the only scorer; the
dense reference formulas live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .linalg import _row_norms, as_matrix

__all__ = ["RetrievalConfig", "NeighborTable", "retrieve"]

KIND_NN = "nn"
KIND_CSLS = "csls"
KIND_ISF = "isf"

_UNIT_NORM_ATOL = 1e-6

# Query rows per score GEMM, and rows per chunk in which a block is
# scored and handed on: 64 rows of 2000 cosines fill 1 MB.
_BLOCK_SIZE = 512
_CHUNK = 64


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
        if not 0.0 < self.isf_beta < np.inf:
            raise InvalidArgumentError("isf_beta must be finite and positive")
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


def _unit_rows(x: np.ndarray, side: str) -> np.ndarray:
    norms = _row_norms(x)
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
    """Mean of the k largest entries of each row, k at most the row length.

    The entries of each row are reordered in place.
    """
    n = scores.shape[1]
    if k < n:
        scores.partition(n - k, axis=1)
    return scores[:, n - k :].mean(axis=1)


def _check_unit(x: np.ndarray, side: str):
    norms = _row_norms(x)
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


def _row_blocks(n: int, rows: int):
    """(lo, hi) bounds of ascending blocks of rows rows covering range(n).

    No block of two or more rows has one row: rows is raised to 2, and a
    lone last row joins the block before it.  numpy multiplies a
    one-row block as a matrix-vector product, which can round a row
    differently in the last bit than a block of two or more rows does.
    """
    rows = max(rows, 2)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _cos_blocks(a: np.ndarray, b: np.ndarray, rows: int | None = None):
    """Yield (lo, hi, cosines of rows lo:hi of a against every row of b).

    The blocks are _row_blocks of rows rows of a, _BLOCK_SIZE when rows
    is None.  Every block is written into one buffer, so a block is only
    valid until the next is asked for, and the caller may overwrite it.
    """
    blocks = _row_blocks(a.shape[0], _BLOCK_SIZE if rows is None else rows)
    buf = np.empty((max(hi - lo for lo, hi in blocks), b.shape[0]))
    for lo, hi in blocks:
        yield lo, hi, np.matmul(a[lo:hi], b.T, out=buf[: hi - lo])


def _target_stats(qn, tn, kind: str, k: int, beta: float) -> np.ndarray:
    """Per-target statistic over every query: CSLS's r_q or ISF's log-sum-exp.

    Walks blocks of _BLOCK_SIZE * nt // nq rows of the nt targets (at
    least two, see _row_blocks) against all nq queries, so a block
    holds about as many cosines as one score block, and reduces each
    block along its rows in place.
    """
    nq, nt = qn.shape[0], tn.shape[0]
    out = np.empty(nt)
    for lo, hi, ct in _cos_blocks(tn, qn, _BLOCK_SIZE * nt // nq):
        if kind == KIND_CSLS:
            out[lo:hi] = _top_k_row_means(ct, k)
        else:
            ct *= beta
            m = ct.max(axis=1)
            ct -= m[:, None]
            np.exp(ct, out=ct)
            out[lo:hi] = np.log(ct.sum(axis=1)) + m
    return out


def _scored_blocks(q, t, kind: str, k: int, beta: float,
                   sides=("query", "target")):
    """Yield (lo, hi, scores of query rows lo:hi against every target).

    The one blocked scorer behind retrieval and dictionary induction.
    CSLS and ISF first take one pass over blocks of target rows to
    assemble their per-target statistics (_target_stats): the mean of
    each target's k best cosines, or its log-sum-exp over all queries.
    k must not exceed either set size under CSLS.  sides names the two
    sets in input errors.

    Each cosine block of _BLOCK_SIZE rows is scored and yielded in
    chunks of at most _CHUNK rows, in ascending order.  A chunk is a
    view of the block buffer: the caller may overwrite it, and it is
    only valid until the next chunk is asked for.  CSLS takes each
    chunk's r_t from a copy in one reused _CHUNK-row scratch, so the
    block itself is never copied.
    """
    qn = _unit_rows(q, sides[0])
    tn = _unit_rows(t, sides[1])
    if kind == KIND_ISF:
        _check_unit(q, sides[0])
        _check_unit(t, sides[1])
    if kind in (KIND_CSLS, KIND_ISF):
        stats = _target_stats(qn, tn, kind, k, beta)
    if kind == KIND_CSLS:
        scratch = np.empty((min(_CHUNK, qn.shape[0]), tn.shape[0]))

    for lo, hi, block in _cos_blocks(qn, tn):
        for c in range(lo, hi, _CHUNK):
            e = min(c + _CHUNK, hi)
            s = block[c - lo : e - lo]
            # In place on the fresh cosines, in the order of
            # 2 cos - r_t - r_q and exp(beta cos - lse), so no score moves.
            if kind == KIND_CSLS:
                buf = scratch[: s.shape[0]]
                np.copyto(buf, s)
                r_t = _top_k_row_means(buf, k)
                s *= 2.0
                s -= r_t[:, None]
                s -= stats[None, :]
            elif kind == KIND_ISF:
                s *= beta
                s -= stats[None, :]
                np.exp(s, out=s)
            yield c, e, s


def retrieve(queries, targets, cfg: RetrievalConfig | None = None, topk: int = 1,
             rows: int | None = None) -> NeighborTable:
    """Top-scoring target indices per query under the configured scorer.

    Only the first cfg.candidate_cap target rows are searched.  Queries
    are processed in blocks, and the top targets are selected chunk by
    chunk; CSLS and ISF need one extra pass, over blocks of target rows,
    to assemble their per-target statistics.

    With rows, only the first rows queries are returned, and no block
    or chunk after theirs is scored.  Statistics still cover every query
    and the blocks are those of the unlimited call, so each returned row
    is bit-identical to its row there.
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

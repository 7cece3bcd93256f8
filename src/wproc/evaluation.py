"""Scoring aligned embeddings: lexicon induction and synthetic accuracy.

Lexicon induction is treated as retrieval: map each source word, look up
its top targets, count a hit when any gold translation appears.  Source
words outside the vocabulary (or with no in-vocabulary translation) are
excluded from the denominator and reported separately, so the precision
reflects retrieval quality rather than coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .data_io import EmbeddingSet, Lexicon, SyntheticInstance
from .errors import EmptyResultError, InvalidArgumentError
from .linalg import OrthogonalMap
from .retrieval import RetrievalConfig, _row_blocks, retrieve

__all__ = ["EvalReport", "evaluate_bli", "matching_accuracy"]

# Source rows per distance block of the "nn" matching.
_NN_ROWS = 256


@dataclass(frozen=True)
class EvalReport:
    """Precision at each requested depth plus coverage counts."""

    precision_at: dict
    n_queries: int
    oov_skipped: int

    def __post_init__(self):
        for k, p in self.precision_at.items():
            if not 0.0 <= p <= 1.0:
                raise InvalidArgumentError(f"precision@{k}={p} outside [0, 1]")

    def as_dict(self) -> dict:
        return {
            "precision_at": {str(k): v for k, v in sorted(self.precision_at.items())},
            "n_queries": self.n_queries,
            "oov_skipped": self.oov_skipped,
        }


def evaluate_bli(
    src: EmbeddingSet,
    tgt: EmbeddingSet,
    q: OrthogonalMap,
    lex: Lexicon,
    cfg: RetrievalConfig | None = None,
    ks=(1, 5, 10),
) -> EvalReport:
    """Precision@k of retrieving gold translations for mapped sources.

    Each unique source word counts once; duplicate lexicon lines merge
    into its gold set, and a query is a hit at depth k when any of its
    gold targets ranks in the top k.  Words skipped for missing
    vocabulary (either side) are tallied in oov_skipped.
    """
    if cfg is None:
        cfg = RetrievalConfig()
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise InvalidArgumentError("ks must be positive depths")
    src_pos = src.index()
    tgt_pos = tgt.index()
    gold = {}
    order = []
    for a, b in lex.pairs:
        if a not in gold:
            gold[a] = set()
            order.append(a)
        if b in tgt_pos:
            gold[a].add(tgt_pos[b])
    rows = []
    gold_sets = []
    oov = 0
    for w in order:
        if w not in src_pos or not gold[w]:
            oov += 1
            continue
        rows.append(src_pos[w])
        gold_sets.append(gold[w])
    if not rows:
        raise EmptyResultError("no usable queries: every lexicon entry is out of vocabulary")
    depth = min(max(ks), min(tgt.size, cfg.candidate_cap))
    queries = src.matrix[rows] @ q.q
    table = retrieve(queries, tgt.matrix, cfg, topk=depth)
    precision = {}
    for k in ks:
        kk = min(k, depth)
        hits = sum(
            1
            for qi, g in enumerate(gold_sets)
            if any(int(j) in g for j in table.indices[qi, :kk])
        )
        precision[k] = hits / len(rows)
    return EvalReport(precision_at=precision, n_queries=len(rows), oov_skipped=oov)


def _nearest_rows(xq: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of the nearest row of y to each row of xq, lowest on ties.

    Squared distances |xq_i|^2 + |y_j|^2 - 2 xq_i.y_j, taken over the
    _row_blocks of _NN_ROWS rows of xq into two reused buffers.  No
    block holds one row of two or more, so each row has the bits of the
    dense n x n expression.
    """
    n = xq.shape[0]
    sq_x = (xq * xq).sum(axis=1)
    sq_y = (y * y).sum(axis=1)
    blocks = _row_blocks(n, _NN_ROWS)
    cost = np.empty((max(hi - lo for lo, hi in blocks), y.shape[0]))
    gram = np.empty_like(cost)
    out = np.empty(n, dtype=np.int64)
    for lo, hi in blocks:
        c = np.add(sq_x[lo:hi, None], sq_y[None, :], out=cost[: hi - lo])
        g = np.matmul(xq[lo:hi], y.T, out=gram[: hi - lo])
        g *= 2.0
        c -= g
        out[lo:hi] = np.argmin(c, axis=1)
    return out


def matching_accuracy(
    inst: SyntheticInstance, q: OrthogonalMap, matcher: str = "nn"
) -> float:
    """Fraction of source rows matched to their true counterpart.

    matcher "nn" matches each mapped source row to its nearest target
    row, over blocks of source rows (memory linear in n).  "exact" solves
    the full assignment problem on the dense n x n squared distances
    (quadratic memory, sensible up to a few thousand rows).
    """
    if matcher not in ("nn", "exact"):
        raise InvalidArgumentError(f"matcher must be nn or exact, got {matcher!r}")
    xq = inst.x.matrix @ q.q
    y = inst.y.matrix
    if matcher == "exact":
        sq_x = (xq * xq).sum(axis=1)
        sq_y = (y * y).sum(axis=1)
        perm, _ = solve_lap(sq_x[:, None] + sq_y[None, :] - 2.0 * (xq @ y.T))
        predicted = perm.mapping
    else:
        predicted = _nearest_rows(xq, y)
    truth = inst.true_permutation.inverse().mapping
    return float(np.mean(predicted == truth))

"""Dense reference scorers, and full score matrices read back from retrieve.

The library has one scorer, the blocked engine behind `retrieve`.  These
full-matrix formulas are the oracles the tests hold it to.
"""

import numpy as np

from wproc.retrieval import retrieve


def unit(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def cosine_scores(q, t):
    """Pairwise cosine similarities, entry (i, j) for query i, target j."""
    return unit(q) @ unit(t).T


def top_k_row_means(scores, k):
    """Mean of the k largest entries of each row."""
    n = scores.shape[1]
    if k >= n:
        return scores.mean(axis=1)
    return np.partition(scores, n - k, axis=1)[:, n - k :].mean(axis=1)


def csls_scores(q, t, k):
    """Locally rescaled cosine: 2 cos(i, j) - R_t(i) - R_q(j).

    R_t(i) is the mean cosine of query i to its k nearest targets and
    R_q(j) the mean cosine of target j to its k nearest queries.
    """
    cos = cosine_scores(q, t)
    r_t = top_k_row_means(cos, k)
    r_q = top_k_row_means(cos.T, k)
    return 2.0 * cos - r_t[:, None] - r_q[None, :]


def retrieved_scores(q, t, cfg):
    """The full score matrix of retrieve, scattered back by target index."""
    table = retrieve(q, t, cfg, topk=t.shape[0])
    out = np.empty(table.indices.shape)
    np.put_along_axis(out, table.indices, table.scores, axis=1)
    return out

"""Reference formulas the tests hold the library to.

The library has one scorer, the blocked engine behind `retrieve`; the
dense scorers here are its oracles, and `retrieved_scores` reads its
full score matrices back.  The Frank-Wolfe objective and gradient are
the oracles of `fw_solve`, which tracks them incrementally.
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


def fw_objective(g, p):
    """f(P) = ||Kx P - P Ky||_F^2 for the Grams of a GramPair."""
    r = g.kx @ p - p @ g.ky
    return float((r * r).sum())


def fw_gradient(g, p):
    """Gradient of f: 2 (Kx (Kx P - P Ky) - (Kx P - P Ky) Ky)."""
    r = g.kx @ p - p @ g.ky
    return 2.0 * (g.kx @ r - r @ g.ky)

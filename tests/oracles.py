"""Reference formulas the tests hold the library to.

The library has one scorer, the blocked engine behind `retrieve`; the
dense scorers here are its oracles, and `retrieved_scores` reads its
full score matrices back.  `nearest_rows` is the dense oracle of the
blocked nearest-neighbour matching behind `matching_accuracy`.  The
Frank-Wolfe objective and gradient are the oracles of `fw_solve`, which
tracks them incrementally.  `plain_sinkhorn` is the unrelaxed scaling
loop that the Sinkhorn solver's warm-up sweeps must reproduce bit for
bit.  `squared_distances` and `gibbs_kernel` are the plain expressions
whose bits the aligner's cost and the Sinkhorn kernel must keep.
`permutation_matrix` is the dense 0/1 form of a `Permutation`, which
the library never builds.
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


def permutation_matrix(perm):
    """Dense 0/1 matrix P with P[i, perm.mapping[i]] = 1."""
    p = np.zeros((perm.size, perm.size))
    p[np.arange(perm.size), perm.mapping] = 1.0
    return p


def squared_distances(xq, y):
    """Dense squared distances ||xq_i||^2 + ||y_j||^2 - 2 xq_i . y_j."""
    sq_x = (xq * xq).sum(axis=1)
    sq_y = (y * y).sum(axis=1)
    return sq_x[:, None] + sq_y[None, :] - 2.0 * (xq @ y.T)


def nearest_rows(xq, y):
    """Nearest row of y to each row of xq by the dense squared distances."""
    return np.argmin(squared_distances(xq, y), axis=1)


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


def gibbs_kernel(cost, eps):
    """The entropic kernel exp(-(C - min C) / eps)."""
    return np.exp(-(cost - cost.min()) / eps)


def plain_sinkhorn(cost, eps, tol, max_sweeps):
    """Plain Sinkhorn-Knopp scaling: (plan, sweeps) once every column sum
    is within tol of 1/b (the rows are exact after each u update), or
    None after max_sweeps."""
    b = cost.shape[0]
    target = 1.0 / b
    kernel = gibbs_kernel(cost, eps)
    u = np.full(b, 1.0 / b)
    for sweep in range(1, max_sweeps + 1):
        v = target / (kernel.T @ u)
        u = target / (kernel @ v)
        if np.abs(v * (kernel.T @ u) - target).max() <= tol:
            return u[:, None] * kernel * v[None, :], sweep
    return None

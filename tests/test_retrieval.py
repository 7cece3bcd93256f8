"""The blocked retrieval engine against naive full-matrix oracles."""

import numpy as np
import pytest

import wproc.retrieval as retrieval_mod
from oracles import retrieved_scores, unit
from wproc.errors import InvalidArgumentError, InvalidInputError
from wproc.retrieval import NeighborTable, RetrievalConfig, _select_top, retrieve


def naive_cosine(q, t):
    out = np.empty((q.shape[0], t.shape[0]))
    for i in range(q.shape[0]):
        for j in range(t.shape[0]):
            out[i, j] = np.dot(q[i], t[j]) / (
                np.linalg.norm(q[i]) * np.linalg.norm(t[j])
            )
    return out


def naive_csls(q, t, k):
    cos = naive_cosine(q, t)
    rt = np.array([np.sort(row)[-k:].mean() for row in cos])
    rq = np.array([np.sort(col)[-k:].mean() for col in cos.T])
    return 2.0 * cos - rt[:, None] - rq[None, :]


def naive_isf(q, t, beta):
    e = np.exp(beta * naive_cosine(q, t))
    return e / e.sum(axis=0)


# The default block size, and one that splits 20 queries into 3 blocks.
BLOCK_SIZES = (1024, 7)


def test_cosine_matches_naive(monkeypatch):
    rng = np.random.default_rng(0)
    q = rng.standard_normal((20, 6))
    t = rng.standard_normal((15, 6))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", size)
        got = retrieved_scores(q, t, RetrievalConfig(kind="nn"))
        assert np.abs(got - naive_cosine(q, t)).max() < 1e-12


def test_csls_matches_naive(monkeypatch):
    rng = np.random.default_rng(1)
    q = rng.standard_normal((20, 5))
    t = rng.standard_normal((15, 5))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", size)
        for k in (1, 3, 10, 15):
            got = retrieved_scores(q, t, RetrievalConfig(kind="csls", csls_k=k))
            assert np.abs(got - naive_csls(q, t, k)).max() < 1e-12


def test_isf_matches_naive_and_normalizes(monkeypatch):
    rng = np.random.default_rng(2)
    q = unit(rng.standard_normal((20, 5)))
    t = unit(rng.standard_normal((15, 5)))
    for size in BLOCK_SIZES:
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", size)
        got = retrieved_scores(q, t, RetrievalConfig(kind="isf", isf_beta=25.0))
        assert np.abs(got - naive_isf(q, t, 25.0)).max() < 1e-12
        assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)


def test_csls_singleton_is_exactly_zero():
    q = np.array([[0.6, 0.8]])
    t = np.array([[3.0, -4.0]])
    table = retrieve(q, t, RetrievalConfig(kind="csls", csls_k=1))
    assert table.scores[0, 0] == 0.0


def test_csls_penalizes_hub():
    # Anchor query sits exactly on the hub target, making the hub's
    # nearest-query cosine 1.0. The offset query is closer to the hub
    # (0.9) than to its true target (0.85) in raw cosine, but the hub's
    # popularity tax flips the ranking under CSLS with k=1.
    c, s = 0.9, np.sqrt(1 - 0.81)
    q_anchor = [1.0, 0.0, 0.0]
    q_off = [c, s, 0.0]
    t_hub = [1.0, 0.0, 0.0]
    t_true = [0.85 * c, 0.85 * s, np.sqrt(1 - 0.85**2)]
    q = np.array([q_anchor, q_off])
    t = np.array([t_hub, t_true])

    nn = retrieve(q, t, RetrievalConfig(kind="nn"))
    assert nn.indices[1, 0] == 0
    csls = retrieve(q, t, RetrievalConfig(kind="csls", csls_k=1))
    assert csls.indices[1, 0] == 1


def test_nn_invariant_to_row_scaling():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((10, 4))
    t = rng.standard_normal((12, 4))
    scales = rng.uniform(0.1, 10.0, 12)
    a = retrieve(q, t, RetrievalConfig(kind="nn"), topk=3)
    b = retrieve(q, t * scales[:, None], RetrievalConfig(kind="nn"), topk=3)
    assert np.array_equal(a.indices, b.indices)


def test_blocked_equals_full_matrix(monkeypatch):
    rng = np.random.default_rng(4)
    q = unit(rng.standard_normal((40, 6)))
    t = unit(rng.standard_normal((25, 6)))
    for kind in ("nn", "csls", "isf"):
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 7)
        small = retrieve(q, t, RetrievalConfig(kind=kind), topk=4)
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4096)
        big = retrieve(q, t, RetrievalConfig(kind=kind), topk=4)
        assert np.array_equal(small.indices, big.indices)
        assert np.abs(small.scores - big.scores).max() < 1e-12


@pytest.mark.parametrize("kind", ["nn", "csls", "isf"])
def test_rows_returns_the_unlimited_rows_and_scores_only_their_blocks(monkeypatch, kind):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 7)
    rng = np.random.default_rng(8)
    q = unit(rng.standard_normal((40, 6)))
    t = unit(rng.standard_normal((25, 6)))
    cfg = RetrievalConfig(kind=kind, csls_k=3)
    full = retrieve(q, t, cfg, topk=4)
    scored = []
    cos_blocks = retrieval_mod._cos_blocks

    def spy(qn, tn):
        for lo, hi, s in cos_blocks(qn, tn):
            scored.append(lo)
            yield lo, hi, s

    monkeypatch.setattr(retrieval_mod, "_cos_blocks", spy)
    for rows in (1, 7, 9, 40, 100):
        scored.clear()
        head = retrieve(q, t, cfg, topk=4, rows=rows)
        assert np.array_equal(head.indices, full.indices[:rows])
        assert np.array_equal(head.scores.view(np.uint64), full.scores[:rows].view(np.uint64))
        # CSLS and ISF take one pass over all 6 blocks for their
        # statistics; scoring stops after the block holding row rows - 1.
        stats = [] if kind == "nn" else list(range(0, 40, 7))
        assert scored == stats + list(range(0, min(rows, 40), 7))
    with pytest.raises(InvalidArgumentError):
        retrieve(q, t, cfg, rows=0)


def test_retrieve_selects_naive_argmax(monkeypatch):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 8)
    rng = np.random.default_rng(5)
    q = unit(rng.standard_normal((30, 5)))
    t = unit(rng.standard_normal((20, 5)))
    table = retrieve(q, t, RetrievalConfig(kind="csls", csls_k=4))
    want = naive_csls(q, t, 4).argmax(axis=1)
    assert np.array_equal(table.indices[:, 0], want)


def test_tie_break_prefers_lower_index():
    q = np.array([[1.0, 0.0]])
    t = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    table = retrieve(q, t, RetrievalConfig(kind="nn"), topk=3)
    assert table.indices[0].tolist() == [0, 1, 2]


def test_top_k_ties_at_the_boundary_match_stable_sort():
    # Small integer scores put ties across the k-th place in most rows, so
    # a partition alone could keep a higher index than a tied one.
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 24))
        s = rng.integers(-2, 3, size=(int(rng.integers(1, 16)), n)).astype(float)
        for topk in (2, n - 1, n):
            want = np.argsort(-s, axis=1, kind="stable")[:, :topk]
            idx, val = _select_top(s.copy(), topk)
            assert np.array_equal(idx, want)
            assert np.array_equal(val, np.take_along_axis(s, want, axis=1))
    # Four equal cosines compete for two places.
    q = np.array([[1.0, 0.0]])
    t = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]])
    table = retrieve(q, t, RetrievalConfig(kind="nn"), topk=2)
    assert table.indices[0].tolist() == [0, 1]


def test_candidate_cap_limits_search():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((8, 3))
    t = rng.standard_normal((30, 3))
    capped = retrieve(q, t, RetrievalConfig(kind="nn", candidate_cap=10))
    direct = retrieve(q, t[:10], RetrievalConfig(kind="nn"))
    assert np.array_equal(capped.indices, direct.indices)
    assert capped.indices.max() < 10


def test_neighbor_table_validation():
    with pytest.raises(InvalidArgumentError):
        NeighborTable(indices=np.array([[0, 1]]),
                      scores=np.array([[0.1, 0.5]]))  # ascending
    with pytest.raises(InvalidArgumentError):
        NeighborTable(indices=np.array([[1, 1]]),
                      scores=np.array([[0.5, 0.1]]))  # duplicate index


def test_input_validation():
    q = np.ones((3, 2))
    t = np.ones((4, 2))
    with pytest.raises(InvalidInputError) as err:
        retrieve(np.array([[0.0, 0.0], [1.0, 0.0]]), t, RetrievalConfig(kind="nn"))
    assert "query row 0" in str(err.value)
    with pytest.raises(InvalidArgumentError):
        retrieve(q, t, RetrievalConfig(kind="csls", csls_k=5))
    with pytest.raises(InvalidInputError):
        retrieve(2.0 * unit(q), unit(t), RetrievalConfig(kind="isf", isf_beta=1.0))
    with pytest.raises(InvalidArgumentError):
        retrieve(np.ones((3, 2)), np.ones((3, 3)), RetrievalConfig(kind="nn"))
    with pytest.raises(InvalidArgumentError):
        retrieve(q, t, RetrievalConfig(kind="nn"), topk=5)


def test_csls_k_beyond_either_set_raises():
    # retrieve refuses csls_k larger than either set; the refinement
    # dictionary clamps it instead (see test_refine.py).
    rng = np.random.default_rng(7)
    q = unit(rng.standard_normal((6, 4)))
    t = unit(rng.standard_normal((8, 4)))
    retrieve(q, t, RetrievalConfig(kind="csls", csls_k=6))
    for k in (7, 9):
        with pytest.raises(InvalidArgumentError):
            retrieve(q, t, RetrievalConfig(kind="csls", csls_k=k))
        with pytest.raises(InvalidArgumentError):
            retrieve(t, q, RetrievalConfig(kind="csls", csls_k=k))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        RetrievalConfig(kind="dot")
    with pytest.raises(InvalidArgumentError):
        RetrievalConfig(csls_k=0)
    for beta in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError):
            RetrievalConfig(isf_beta=beta)
    with pytest.raises(InvalidArgumentError):
        RetrievalConfig(candidate_cap=0)

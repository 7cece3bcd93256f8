"""The blocked retrieval engine against naive full-matrix oracles."""

import tracemalloc

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
BLOCK_SIZES = (512, 7)


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

    def spy(*args):
        for lo, hi, s in cos_blocks(*args):
            scored.append(lo)
            yield lo, hi, s

    monkeypatch.setattr(retrieval_mod, "_cos_blocks", spy)
    for rows in (1, 7, 9, 40, 100):
        scored.clear()
        head = retrieve(q, t, cfg, topk=4, rows=rows)
        assert np.array_equal(head.indices, full.indices[:rows])
        assert np.array_equal(head.scores.view(np.uint64), full.scores[:rows].view(np.uint64))
        # CSLS and ISF take one pass over all 25 targets for their
        # statistics, in blocks of 7 * 25 // 40 = 4 target rows against
        # every query, the lone 25th row joining the block before;
        # scoring stops after the block holding row rows - 1.
        stats = [] if kind == "nn" else list(range(0, 24, 4))
        assert scored == stats + list(range(0, min(rows, 40), 7))
    with pytest.raises(InvalidArgumentError):
        retrieve(q, t, cfg, rows=0)


@pytest.mark.parametrize("kind", ["csls", "isf"])
@pytest.mark.parametrize("nq, nt", [(40, 9), (9, 40), (23, 22)])
def test_statistics_blocks_cover_each_target_once_within_a_score_block(
        monkeypatch, kind, nq, nt):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 5)
    rng = np.random.default_rng(9)
    q = unit(rng.standard_normal((nq, 6)))
    t = unit(rng.standard_normal((nt, 6)))
    stats = []
    cos_blocks = retrieval_mod._cos_blocks

    def spy(a, b, *rows):
        for lo, hi, s in cos_blocks(a, b, *rows):
            if b.shape[0] == nq:  # target rows against every query
                stats.append((lo, hi, s.size))
            yield lo, hi, s

    monkeypatch.setattr(retrieval_mod, "_cos_blocks", spy)
    cfg = RetrievalConfig(kind=kind, csls_k=3)
    got = retrieve(q, t, cfg, topk=2)
    # A block has 5 * nt // nq target rows, at least two, and one more
    # when a lone last row joins it.
    rows = max(2, 5 * nt // nq)
    assert stats and all(size <= (rows + 1) * nq for _, _, size in stats)
    assert all(hi - lo >= 2 for lo, hi, _ in stats)
    assert [i for lo, hi, _ in stats for i in range(lo, hi)] == list(range(nt))
    want = naive_csls(q, t, 3) if kind == "csls" else naive_isf(q, t, 25.0)
    assert np.abs(got.scores[:, 0] - want.max(axis=1)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 513, 1025])
@pytest.mark.parametrize("rows", [1, 2, 512])
def test_row_blocks_cover_the_rows_with_no_lone_row(n, rows):
    blocks = retrieval_mod._row_blocks(n, rows)
    assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
    assert all(hi - lo >= min(n, 2) for lo, hi in blocks)
    assert all(hi - lo <= max(rows, 2) + 1 for lo, hi in blocks)


def test_a_row_has_the_same_bits_whatever_the_query_count():
    # With 512-row blocks, 513 queries would end in a one-row block,
    # which numpy multiplies as a matrix-vector product.
    rng = np.random.default_rng(13)
    q = unit(rng.standard_normal((514, 300)))
    t = unit(rng.standard_normal((700, 300)))
    cfg = RetrievalConfig(kind="nn")
    short, long = (retrieve(q[:n], t, cfg, topk=3) for n in (513, 514))
    assert np.array_equal(short.indices, long.indices[:513])
    assert short.scores.tobytes() == long.scores[:513].tobytes()


def tied_unit_rows(rng, n, d):
    """Unit rows of small integers: many rows repeat and many cosines
    tie, within a row and between rows on both sides of chunk bounds."""
    x = rng.integers(-1, 2, size=(n, d)).astype(float)
    x[~x.any(axis=1), 0] = 1.0
    return unit(x)


@pytest.mark.parametrize("kind", ["nn", "csls", "isf"])
def test_chunks_keep_the_bits_of_whole_blocks(monkeypatch, kind):
    # A chunk as tall as the block is the scorer without chunks: r_t
    # from a copy of the whole block, top-k over the whole block.  The
    # argmax fork of topk=1 must also keep the column the general path
    # ranks first.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 7)
    rng = np.random.default_rng(10)
    q = tied_unit_rows(rng, 40, 4)
    t = tied_unit_rows(rng, 25, 4)
    cfg = RetrievalConfig(kind=kind, csls_k=3)

    def tables(chunk):
        monkeypatch.setattr(retrieval_mod, "_CHUNK", chunk)
        return [retrieve(q, t, cfg, topk=topk, rows=rows)
                for topk in (1, 2, 4) for rows in (None, 11)]

    whole = tables(7)
    assert np.any(np.diff(whole[4].scores, axis=1) == 0)  # ties in the top 4
    top1, top2 = whole[0], whole[2]
    assert np.any(top2.scores[:, 0] == top2.scores[:, 1])
    assert np.array_equal(top1.indices, top2.indices[:, :1])
    assert top1.scores.tobytes() == top2.scores[:, :1].tobytes()
    for chunk in (3, 2, 1, 64):
        for got, want in zip(tables(chunk), whole):
            assert np.array_equal(got.indices, want.indices)
            assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize("kind", ["nn", "csls", "isf"])
def test_retrieve_holds_one_score_block_and_a_few_chunks(kind):
    rng = np.random.default_rng(12)
    q = unit(rng.standard_normal((1500, 16)))
    t = unit(rng.standard_normal((4000, 16)))
    tracemalloc.start()
    try:
        retrieve(q, t, RetrievalConfig(kind=kind), topk=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One score block, the r_t scratch and a consumer's chunk-sized
    # temporaries, plus the unit-normalized inputs and the output table;
    # a block-sized copy or index array would exceed it.
    row = 8 * t.shape[0]
    block = retrieval_mod._BLOCK_SIZE * row
    assert peak <= block + 4 * retrieval_mod._CHUNK * row + 2 * (q.nbytes + t.nbytes)


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
        for topk in (1, 2, n - 1, n):
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
    for beta in (0.0, -1.0, np.inf):
        with pytest.raises(InvalidArgumentError, match="isf_beta must be finite"):
            RetrievalConfig(isf_beta=beta)
    with pytest.raises(InvalidArgumentError):
        RetrievalConfig(candidate_cap=0)

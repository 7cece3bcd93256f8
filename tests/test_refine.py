"""Mutual-NN dictionary induction and the refinement loop."""

import numpy as np
import pytest

import wproc.refine as refine_mod
import wproc.retrieval as retrieval_mod
from oracles import csls_scores, refine_every_epoch, unit
from wproc.errors import EmptyResultError, InvalidArgumentError
from wproc.linalg import OrthogonalMap, project_orthogonal
from wproc.refine import RefineResult, mutual_nn_dictionary, refine


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def mutual_pairs(s):
    fwd = s.argmax(axis=1)
    bwd = s.argmax(axis=0)
    return [[i, int(fwd[i])] for i in range(len(fwd)) if bwd[fwd[i]] == i]


def naive_mutual_pairs(xs, ys, k):
    return mutual_pairs(csls_scores(xs, ys, k))


def test_mutual_dictionary_is_an_index_array(monkeypatch):
    # (source row, target row) pairs: unique ascending sources, and both
    # sides inside the candidate cap.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 9)
    rng = np.random.default_rng(9)
    xs = unit(rng.standard_normal((50, 4)))
    ys = unit(rng.standard_normal((45, 4)))
    d = mutual_nn_dictionary(xs, ys, csls_k=3, candidate_cap=30)
    assert d.dtype == np.int64
    assert d.ndim == 2 and d.shape[1] == 2 and len(d) == d.shape[0] > 1
    assert np.all(np.diff(d[:, 0]) > 0)
    assert d.min() >= 0
    assert d.max() < 30


def test_mutual_dictionary_matches_naive_full_matrix(monkeypatch):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 13)
    rng = np.random.default_rng(0)
    xs = unit(rng.standard_normal((60, 8)))
    ys = unit(rng.standard_normal((45, 8)))
    d = mutual_nn_dictionary(xs, ys, csls_k=5)
    assert d.tolist() == naive_mutual_pairs(xs, ys, 5)


def test_mutual_dictionary_on_shared_points():
    # Identical point sets in shuffled order must pair every point with
    # its own copy.
    rng = np.random.default_rng(1)
    xs = unit(rng.standard_normal((30, 6)))
    order = rng.permutation(30)
    ys = xs[order]
    d = mutual_nn_dictionary(xs, ys, csls_k=3)
    assert len(d) == 30
    inv = np.argsort(order)
    for i, j in d:
        assert j == inv[i]


def test_candidate_cap_restricts_both_sides():
    rng = np.random.default_rng(2)
    xs = unit(rng.standard_normal((40, 5)))
    ys = unit(rng.standard_normal((40, 5)))
    d = mutual_nn_dictionary(xs, ys, csls_k=3, candidate_cap=12)
    assert d[:, 0].max() < 12
    assert d[:, 1].max() < 12
    assert d.tolist() == naive_mutual_pairs(xs[:12], ys[:12], 3)


def test_csls_k_is_clamped_to_set_sizes(monkeypatch):
    # Unlike retrieve, dictionary induction clamps csls_k to the smaller
    # set instead of raising.  On this seed the unclamped row penalty
    # (mean over all 8 targets) loses a pair.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    rng = np.random.default_rng(3)
    xs = unit(rng.standard_normal((6, 4)))
    ys = unit(rng.standard_normal((8, 4)))
    d = mutual_nn_dictionary(xs, ys, csls_k=10)
    assert d.tolist() == naive_mutual_pairs(xs, ys, 6)


def test_duplicate_sources_across_blocks_pair_lowest_index(monkeypatch):
    # Sources 1 and 4 are the same point and sit in different blocks;
    # the target they share must pair with source 1.
    rng = np.random.default_rng(8)
    base = unit(rng.standard_normal((5, 4)))
    xs = base[[0, 1, 2, 3, 1, 4]]
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 2)
    d = mutual_nn_dictionary(xs, base, csls_k=2)
    assert [1, 1] in d.tolist()
    assert 4 not in d[:, 0].tolist()
    assert d.tolist() == naive_mutual_pairs(xs, base, 2)


def test_duplicate_sources_within_a_block_pair_lowest_index(monkeypatch):
    # Sources 1 and 2 are the same point in one block: the target they
    # share takes the first row that attains its column's maximum.
    rng = np.random.default_rng(8)
    base = unit(rng.standard_normal((5, 4)))
    xs = base[[0, 1, 1, 2, 3, 4]]
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    d = mutual_nn_dictionary(xs, base, csls_k=2)
    assert [1, 1] in d.tolist()
    assert 2 not in d[:, 0].tolist()
    assert d.tolist() == naive_mutual_pairs(xs, base, 2)


def test_duplicate_sources_across_chunks_pair_lowest_index(monkeypatch):
    # Sources 2 and 3 are the same point in one block, on either side of
    # a chunk bound: the target they share pairs with source 2.
    rng = np.random.default_rng(8)
    base = unit(rng.standard_normal((5, 4)))
    xs = base[[0, 1, 2, 2, 3, 4]]
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    monkeypatch.setattr(retrieval_mod, "_CHUNK", 3)
    d = mutual_nn_dictionary(xs, base, csls_k=2)
    assert [2, 2] in d.tolist()
    assert 3 not in d[:, 0].tolist()
    assert d.tolist() == naive_mutual_pairs(xs, base, 2)


def test_mutual_dictionary_chunks_keep_the_pairs_of_whole_blocks(monkeypatch):
    # Small-integer rows repeat, so column maxima tie across chunk bounds.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 7)
    rng = np.random.default_rng(11)
    xs, ys = (unit(rng.integers(-1, 2, size=(n, 3)).astype(float) + [0.0, 0.0, 0.5])
              for n in (40, 25))
    pairs = []
    for chunk in (7, 3, 2, 1):
        monkeypatch.setattr(retrieval_mod, "_CHUNK", chunk)
        pairs.append(mutual_nn_dictionary(xs, ys, csls_k=3).tolist())
    assert len(pairs[0]) > 0 and len(set(map(tuple, xs))) < len(xs)
    assert all(p == pairs[0] for p in pairs)


def test_refine_fixed_point_on_aligned_sets():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 5))
    r = random_orthogonal(rng, 5)
    y = x @ r
    result = refine(x, y, OrthogonalMap(q=r), epochs=3, csls_k=4)
    assert result.status == "completed"
    assert result.dictionary_sizes == (50, 50, 50)
    assert np.linalg.norm(result.q.q - r) < 1e-12


@pytest.mark.parametrize("seed", [4, 11, 12])
def test_refine_stops_at_its_fixed_point_with_the_bits_of_every_epoch(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((80, 6))
    r = random_orthogonal(rng, 6)
    y = (x @ r + 0.02 * rng.standard_normal((80, 6)))[rng.permutation(80)]
    start = project_orthogonal(r + 0.15 * rng.standard_normal((6, 6)))
    result = refine(x, y, start, epochs=5, csls_k=5)
    want_q, want_sizes = refine_every_epoch(x, y, start, 5, csls_k=5)
    assert result.q.q.tobytes() == want_q.q.tobytes()
    assert result.dictionary_sizes == want_sizes
    assert result.epochs_fitted < 5


def test_refine_takes_a_dictionary_differing_in_its_last_pair_for_a_new_one(
        monkeypatch):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 4))
    r = random_orthogonal(rng, 4)
    y = x @ r
    d = mutual_nn_dictionary(x @ r, y, 3)
    moved = d.copy()
    moved[-1, 1] = moved[0, 1]
    given = iter([d, moved, moved])
    monkeypatch.setattr(refine_mod, "mutual_nn_dictionary",
                        lambda *args: next(given))
    result = refine(x, y, OrthogonalMap(q=r), epochs=3, csls_k=3)
    assert result.epochs_fitted == 2
    assert result.dictionary_sizes == (30, 30, 30)
    want = refine_mod.fit_orthogonal(x[moved[:, 0]], y[moved[:, 1]])
    assert result.q.q.tobytes() == want.q.tobytes()


def test_refine_improves_perturbed_map():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 6))
    r = random_orthogonal(rng, 6)
    noise = 0.02 * rng.standard_normal((80, 6))
    y = (x @ r + noise)[rng.permutation(80)]
    start = project_orthogonal(r + 0.15 * rng.standard_normal((6, 6)))
    before = np.linalg.norm(start.q - r)
    result = refine(x, y, start, epochs=5, csls_k=5)
    after = np.linalg.norm(result.q.q - r)
    assert result.status == "completed"
    assert after < 0.25 * before
    assert len(result.dictionary_sizes) == 5


def test_refine_empty_dictionary_returns_partial(monkeypatch):
    # Mutual pairs always exist for finite nonempty sets (the globally
    # best-scoring pair is mutual), so the empty path is forced here.
    # The second dictionary drops a pair, so it is not a repeat of the
    # first and the loop goes on to the third.
    calls = {"n": 0}
    real = refine_mod.mutual_nn_dictionary

    def flaky(xm, y, csls_k, candidate_cap):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise EmptyResultError("no mutual nearest neighbors; cannot refine")
        d = real(xm, y, csls_k, candidate_cap)
        return d if calls["n"] == 1 else d[:-1]

    monkeypatch.setattr(refine_mod, "mutual_nn_dictionary", flaky)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))
    r = random_orthogonal(rng, 4)
    result = refine(x, x @ r, OrthogonalMap(q=r), epochs=5, csls_k=3)
    assert result.status == "empty-dictionary"
    assert len(result.dictionary_sizes) == 2
    assert result.epochs_fitted == 2
    # The partial map is the fit from the last successful epoch.
    assert np.linalg.norm(result.q.q - r) < 1e-12


def test_refine_validates_epochs():
    with pytest.raises(InvalidArgumentError):
        refine(np.eye(3), np.eye(3), OrthogonalMap(q=np.eye(3)), epochs=0)


@pytest.mark.parametrize("counts", [dict(csls_k=0), dict(candidate_cap=0)])
def test_refine_validates_counts_before_any_epoch(monkeypatch, counts):
    def epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(refine_mod, "mutual_nn_dictionary", epoch)
    x = unit(np.random.default_rng(2).standard_normal((8, 3)))
    with pytest.raises(InvalidArgumentError):
        refine(x, x, OrthogonalMap(q=np.eye(3)), **counts)
    with pytest.raises(InvalidArgumentError):
        mutual_nn_dictionary(x, x, **counts)


def test_mutual_dictionary_rejects_dimension_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
        mutual_nn_dictionary(unit(rng.standard_normal((8, 3))),
                             unit(rng.standard_normal((8, 4))))


@pytest.mark.parametrize("dx, dy, dq", [(3, 4, 3), (4, 4, 3), (3, 3, 4)])
def test_refine_rejects_dimension_mismatch(dx, dy, dq):
    rng = np.random.default_rng(1)
    x = unit(rng.standard_normal((8, dx)))
    y = unit(rng.standard_normal((8, dy)))
    with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
        refine(x, y, OrthogonalMap(q=np.eye(dq)), epochs=1)


def test_refine_result_is_plain_data():
    r = RefineResult(q=OrthogonalMap(q=np.eye(2)), dictionary_sizes=(4,),
                     status="completed", epochs_fitted=1)
    assert r.dictionary_sizes == (4,)
    assert r.epochs_fitted == 1

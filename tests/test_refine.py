"""Mutual-NN dictionary induction and the refinement loop."""

import numpy as np
import pytest

import wproc.refine as refine_mod
import wproc.retrieval as retrieval_mod
from oracles import csls_scores, unit
from wproc.errors import EmptyResultError, InvalidArgumentError
from wproc.linalg import OrthogonalMap, project_orthogonal
from wproc.refine import RefineResult, SeedDictionary, mutual_nn_dictionary, refine


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def mutual_pairs(s):
    fwd = s.argmax(axis=1)
    bwd = s.argmax(axis=0)
    return [(i, int(fwd[i])) for i in range(len(fwd)) if bwd[fwd[i]] == i]


def naive_mutual_pairs(xs, ys, k):
    return mutual_pairs(csls_scores(xs, ys, k))


def test_seed_dictionary_validation():
    d = SeedDictionary(pairs=((0, 2), (3, 1)))
    assert len(d) == 2
    assert d.sources.tolist() == [0, 3]
    assert d.targets.tolist() == [2, 1]
    with pytest.raises(InvalidArgumentError):
        SeedDictionary(pairs=((0, 1), (0, 2)))  # duplicate source
    with pytest.raises(InvalidArgumentError):
        SeedDictionary(pairs=((-1, 0),))


def test_mutual_dictionary_matches_naive_full_matrix(monkeypatch):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 13)
    rng = np.random.default_rng(0)
    xs = unit(rng.standard_normal((60, 8)))
    ys = unit(rng.standard_normal((45, 8)))
    d = mutual_nn_dictionary(xs, ys, csls_k=5)
    assert sorted(d.pairs) == sorted(naive_mutual_pairs(xs, ys, 5))


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
    for i, j in d.pairs:
        assert j == inv[i]


def test_candidate_cap_restricts_both_sides():
    rng = np.random.default_rng(2)
    xs = unit(rng.standard_normal((40, 5)))
    ys = unit(rng.standard_normal((40, 5)))
    d = mutual_nn_dictionary(xs, ys, csls_k=3, candidate_cap=12)
    assert d.sources.max() < 12
    assert d.targets.max() < 12
    assert sorted(d.pairs) == sorted(naive_mutual_pairs(xs[:12], ys[:12], 3))


def test_csls_k_is_clamped_to_set_sizes(monkeypatch):
    # Unlike retrieve, dictionary induction clamps csls_k to the smaller
    # set instead of raising.  On this seed the unclamped row penalty
    # (mean over all 8 targets) loses a pair.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    rng = np.random.default_rng(3)
    xs = unit(rng.standard_normal((6, 4)))
    ys = unit(rng.standard_normal((8, 4)))
    d = mutual_nn_dictionary(xs, ys, csls_k=10)
    assert sorted(d.pairs) == sorted(naive_mutual_pairs(xs, ys, 6))


def test_duplicate_sources_across_blocks_pair_lowest_index(monkeypatch):
    # Sources 1 and 4 are the same point and sit in different blocks;
    # the target they share must pair with source 1.
    rng = np.random.default_rng(8)
    base = unit(rng.standard_normal((5, 4)))
    xs = base[[0, 1, 2, 3, 1, 4]]
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 2)
    d = mutual_nn_dictionary(xs, base, csls_k=2)
    assert (1, 1) in d.pairs
    assert 4 not in d.sources.tolist()
    assert sorted(d.pairs) == sorted(naive_mutual_pairs(xs, base, 2))


def test_refine_fixed_point_on_aligned_sets():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 5))
    r = random_orthogonal(rng, 5)
    y = x @ r
    result = refine(x, y, OrthogonalMap(q=r), epochs=3, csls_k=4)
    assert result.status == "completed"
    assert result.dictionary_sizes == (50, 50, 50)
    assert np.linalg.norm(result.q.q - r) < 1e-12


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
    calls = {"n": 0}
    real = refine_mod.mutual_nn_dictionary

    def flaky(xm, y, csls_k, candidate_cap):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise EmptyResultError("no mutual nearest neighbors; cannot refine")
        return real(xm, y, csls_k, candidate_cap)

    monkeypatch.setattr(refine_mod, "mutual_nn_dictionary", flaky)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))
    r = random_orthogonal(rng, 4)
    result = refine(x, x @ r, OrthogonalMap(q=r), epochs=5, csls_k=3)
    assert result.status == "empty-dictionary"
    assert len(result.dictionary_sizes) == 2
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
                     status="completed")
    assert r.dictionary_sizes == (4,)

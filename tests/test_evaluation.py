"""Lexicon-induction scoring and matching accuracy."""

import tracemalloc

import numpy as np
import pytest

import wproc.evaluation as evaluation_mod
from oracles import nearest_rows
from wproc.data_io import EmbeddingSet, Lexicon, synth_generate
from wproc.errors import EmptyResultError, InvalidArgumentError
from wproc.evaluation import EvalReport, evaluate_bli, matching_accuracy
from wproc.linalg import OrthogonalMap
from wproc.procrustes import fit_orthogonal
from wproc.retrieval import RetrievalConfig


def unit(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def make_sets(rng, n=30, d=6):
    x = unit(rng.standard_normal((n, d)))
    src = EmbeddingSet(labels=tuple(f"s{i}" for i in range(n)), matrix=x)
    tgt = EmbeddingSet(labels=tuple(f"t{i}" for i in range(n)), matrix=x)
    return src, tgt


def test_perfect_alignment_scores_one():
    rng = np.random.default_rng(0)
    src, tgt = make_sets(rng)
    lex = Lexicon(pairs=tuple((f"s{i}", f"t{i}") for i in range(30)))
    report = evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(6)), lex,
                          RetrievalConfig(kind="nn"), ks=(1, 5))
    assert report.precision_at[1] == 1.0
    assert report.precision_at[5] == 1.0
    assert report.n_queries == 30
    assert report.oov_skipped == 0


def test_precision_monotone_in_k():
    rng = np.random.default_rng(1)
    src, tgt = make_sets(rng, n=50)
    # Corrupt the map so retrieval is imperfect.
    q = fit_orthogonal(np.eye(6), np.eye(6))
    lex = Lexicon(pairs=tuple((f"s{i}", f"t{(i * 7) % 50}") for i in range(50)))
    report = evaluate_bli(src, tgt, q, lex, RetrievalConfig(kind="nn"),
                          ks=(1, 5, 10))
    p = report.precision_at
    assert p[1] <= p[5] <= p[10]


def test_duplicate_sources_collapse_to_gold_sets():
    rng = np.random.default_rng(2)
    src, tgt = make_sets(rng, n=10)
    # s0 appears twice; a hit on either gold target counts once.
    lex = Lexicon(pairs=(("s0", "t0"), ("s0", "t3"), ("s1", "t1")))
    report = evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(6)), lex,
                          RetrievalConfig(kind="nn"), ks=(1,))
    assert report.n_queries == 2
    assert report.precision_at[1] == 1.0


def test_oov_counting():
    rng = np.random.default_rng(3)
    src, tgt = make_sets(rng, n=10)
    lex = Lexicon(pairs=(
        ("s0", "t0"),
        ("missing", "t1"),  # source oov
        ("s2", "zzz"),      # every gold target oov
        ("s3", "t3"),
    ))
    report = evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(6)), lex,
                          RetrievalConfig(kind="nn"), ks=(1,))
    assert report.n_queries == 2
    assert report.oov_skipped == 2


def test_all_oov_raises():
    rng = np.random.default_rng(4)
    src, tgt = make_sets(rng, n=5)
    lex = Lexicon(pairs=(("nope", "t0"),))
    with pytest.raises(EmptyResultError):
        evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(6)), lex)


def test_random_map_scores_near_chance():
    # With a scrambled target set, P@1 for NN retrieval over n candidates
    # concentrates near 1/n.
    rng = np.random.default_rng(5)
    n, d = 400, 8
    x = unit(rng.standard_normal((n, d)))
    y = unit(rng.standard_normal((n, d)))
    src = EmbeddingSet(labels=tuple(f"s{i}" for i in range(n)), matrix=x)
    tgt = EmbeddingSet(labels=tuple(f"t{i}" for i in range(n)), matrix=y)
    lex = Lexicon(pairs=tuple((f"s{i}", f"t{i}") for i in range(n)))
    report = evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(8)), lex,
                          RetrievalConfig(kind="nn"), ks=(1,))
    # Binomial(400, 1/400): zero to five hits covers > 99.9% of the mass.
    assert report.precision_at[1] <= 5 / 400


def test_relabeling_invariance():
    # Renaming words consistently in sets and lexicon must not change
    # the scores.
    rng = np.random.default_rng(6)
    src, tgt = make_sets(rng, n=20)
    lex = Lexicon(pairs=tuple((f"s{i}", f"t{i}") for i in range(20)))
    base = evaluate_bli(src, tgt, OrthogonalMap(q=np.eye(6)), lex,
                        RetrievalConfig(kind="csls", csls_k=3), ks=(1, 5))
    src2 = EmbeddingSet(labels=tuple(f"w_{l}" for l in src.labels),
                        matrix=src.matrix)
    lex2 = Lexicon(pairs=tuple((f"w_{a}", b) for a, b in lex.pairs))
    again = evaluate_bli(src2, tgt, OrthogonalMap(q=np.eye(6)), lex2,
                         RetrievalConfig(kind="csls", csls_k=3), ks=(1, 5))
    assert base.precision_at == again.precision_at


def test_report_validation_and_dict():
    r = EvalReport(precision_at={1: 0.5}, n_queries=10, oov_skipped=2)
    assert r.as_dict() == {
        "precision_at": {"1": 0.5},
        "n_queries": 10,
        "oov_skipped": 2,
    }
    with pytest.raises(InvalidArgumentError):
        EvalReport(precision_at={1: 1.5}, n_queries=10, oov_skipped=0)


def test_matching_accuracy_exact_and_nn():
    inst = synth_generate(60, 4, 0.0, seed=11)
    assert matching_accuracy(inst, inst.true_rotation, "nn") == 1.0
    assert matching_accuracy(inst, inst.true_rotation, "exact") == 1.0
    scrambled = OrthogonalMap(q=np.eye(4))
    assert matching_accuracy(inst, scrambled, "nn") < 0.2
    with pytest.raises(InvalidArgumentError):
        matching_accuracy(inst, inst.true_rotation, "greedy")


def test_matching_accuracy_counts_fraction():
    # Hand-built two-point instance where the map sends each x row onto
    # the wrong partner: accuracy must be 0, not just below 1.
    inst = synth_generate(16, 2, 0.0, seed=12)
    rot = inst.true_rotation.q @ np.array([[-1.0, 0.0], [0.0, -1.0]])
    acc = matching_accuracy(inst, OrthogonalMap(q=rot), "nn")
    assert 0.0 <= acc < 0.3


@pytest.mark.parametrize("n", [50, 49, 7, 8, 1])
def test_nearest_rows_match_the_dense_oracle(monkeypatch, n):
    # 7-row blocks: the lone 50th row joins the block before; 49 and 7
    # end in full blocks.
    monkeypatch.setattr(evaluation_mod, "_NN_ROWS", 7)
    rng = np.random.default_rng(14)
    for xq, y in ((rng.standard_normal((n, 5)), rng.standard_normal((33, 5))),
                  # small integers: equal distances, lowest index wins
                  (rng.integers(-1, 2, (n, 3)).astype(float),
                   rng.integers(-1, 2, (33, 3)).astype(float))):
        assert np.array_equal(evaluation_mod._nearest_rows(xq, y), nearest_rows(xq, y))


def test_matching_accuracy_nn_is_the_dense_nearest_row_share(monkeypatch):
    monkeypatch.setattr(evaluation_mod, "_NN_ROWS", 7)
    inst = synth_generate(50, 4, 0.5, seed=15)
    truth = inst.true_permutation.inverse().mapping
    for q in (inst.true_rotation, OrthogonalMap(q=np.eye(4))):
        want = np.mean(nearest_rows(inst.x.matrix @ q.q, inst.y.matrix) == truth)
        assert matching_accuracy(inst, q, "nn") == want


def test_matching_accuracy_nn_memory_is_linear_in_n():
    n = 3000
    inst = synth_generate(n, 16, 0.01, seed=13)
    tracemalloc.start()
    try:
        acc = matching_accuracy(inst, inst.true_rotation, "nn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc == 1.0
    # Two blocks of distances, the mapped sources and a few n-vectors;
    # one dense n x n matrix alone is 72 MB.
    blocks = 2 * evaluation_mod._NN_ROWS * n * 8
    assert peak <= blocks + 2 * inst.x.matrix.nbytes + 64 * n

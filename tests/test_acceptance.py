"""Acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with the measured quantities so a
verbose run reads as a checklist.  Empirical thresholds were frozen from
reference runs of the same constructions; see the accompanying numbers in
each test body.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import wproc
import wproc.retrieval as retrieval_mod
from oracles import fw_gradient, fw_objective, retrieved_scores
from wproc.aligner import AlignmentState, align, align_step
from wproc.assignment import max_trace_matching, solve_lap
from wproc.data_io import synth_generate
from wproc.evaluation import matching_accuracy
from wproc.linalg import OrthogonalMap, project_orthogonal
from wproc.procrustes import fit_orthogonal
from wproc.qap_init import build_grams, extract_q0, fw_solve
from wproc.retrieval import RetrievalConfig, retrieve
from wproc.rng import PortableRng
from wproc.sinkhorn import sinkhorn_plan

from test_assignment import brute_force_lap


def report(num, detail):
    print(f"[criterion {num:2d}] PASS {detail}")


def sqdist(a, b):
    return (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)


def test_criterion_01_assignment_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for trial in range(500):
        n = 2 + trial % 7
        if trial % 3 == 0:
            # small integer grid: dense ties
            cost = rng.integers(0, 4, size=(n, n)).astype(float)
        elif trial % 7 == 0:
            cost = np.full((n, n), float(trial % 5))
        else:
            cost = rng.uniform(size=(n, n))
        _, got = solve_lap(cost)
        _, want = brute_force_lap(cost)
        assert got == want, f"trial {trial}: {got} != {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"500 instances exact, {elapsed:.2f}s")


def test_criterion_02_sinkhorn_tracks_exact_assignment():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_marginal = 0.0
    for _ in range(20):
        cost = rng.uniform(size=(50, 50))
        eps = 0.001 * float(np.median(cost))
        plan = sinkhorn_plan(cost, epsilon=eps)
        _, opt = solve_lap(cost)
        rel = abs(50.0 * float((plan.weights * cost).sum()) - opt) / opt
        worst_rel = max(worst_rel, rel)
        worst_marginal = max(worst_marginal, plan.marginal_error)
    elapsed = time.perf_counter() - t0
    assert worst_rel <= 0.01, f"worst relative gap {worst_rel:.4f}"
    assert worst_marginal <= 1e-6, f"worst marginal {worst_marginal:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"rel gap {worst_rel:.2e}, marginal {worst_marginal:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_03_procrustes_exact_recovery():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((200, 10))
        r = project_orthogonal(rng.standard_normal((10, 10))).q
        q = fit_orthogonal(x, x @ r)
        worst = max(worst, float(np.linalg.norm(q.q - r)))
    assert worst < 1e-8, f"worst recovery error {worst:.2e}"
    report(3, f"50 rotations recovered, worst error {worst:.2e}")


def _random_doubly_stochastic(rng, m):
    w = rng.exponential(size=5)
    w /= w.sum()
    p = np.zeros((m, m))
    for wi in w:
        perm = rng.permutation(m)
        p[np.arange(m), perm] += wi
    return p


def test_criterion_04_frank_wolfe_gradient_and_feasibility():
    rng = np.random.default_rng(404)
    x = rng.standard_normal((15, 8))
    y = rng.standard_normal((15, 8))
    g = build_grams(x, y, 15)

    worst_fd = 0.0
    for _ in range(20):
        p = _random_doubly_stochastic(rng, 15)
        direction = rng.standard_normal((15, 15))
        h = 1e-6
        fd = (fw_objective(g, p + h * direction)
              - fw_objective(g, p - h * direction)) / (2.0 * h)
        analytic = float((fw_gradient(g, p) * direction).sum())
        rel = abs(fd - analytic) / max(1.0, abs(analytic))
        worst_fd = max(worst_fd, rel)
    assert worst_fd < 1e-5, f"worst gradient error {worst_fd:.2e}"

    # The solve path is deterministic, so the plan of a run truncated at
    # k iterations is the k-th iterate of the full run.
    inst = synth_generate(40, 8, 0.1, seed=44)
    grams = build_grams(inst.x.matrix, inst.y.matrix, 40)
    _, trace = fw_solve(grams, max_iters=60)
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * trace[0]), "objective trace increased"

    worst_feas = 0.0
    for k in range(1, 16):
        plan, _ = fw_solve(grams, max_iters=k)
        p = plan.weights * plan.size
        err = max(np.abs(p.sum(axis=0) - 1.0).max(),
                  np.abs(p.sum(axis=1) - 1.0).max())
        worst_feas = max(worst_feas, float(err))
    assert worst_feas <= 1e-8, f"iterate infeasibility {worst_feas:.2e}"
    report(4, f"gradient rel err {worst_fd:.2e}, trace monotone over "
              f"{len(trace) - 1} steps, iterate feasibility {worst_feas:.2e}")


def test_criterion_05_stochastic_gradient_and_isometry():
    rng = np.random.default_rng(505)
    x = rng.standard_normal((120, 12))
    y = rng.standard_normal((120, 12))
    q = project_orthogonal(rng.standard_normal((12, 12)))

    # the matching the step uses, held fixed for differentiation
    perm = max_trace_matching((x @ q.q) @ y.T)
    m = x.T @ y[perm.mapping]
    grad = -2.0 * m

    def f(qm):
        return -2.0 * float((qm * m).sum())

    worst = 0.0
    for _ in range(10):
        e = rng.standard_normal((12, 12))
        h = 1e-4
        fd = (f(q.q + h * e) - f(q.q - h * e)) / (2.0 * h)
        analytic = float((grad * e).sum())
        rel = abs(fd - analytic) / max(1.0, abs(analytic))
        worst = max(worst, rel)
    assert worst < 1e-6, f"gradient rel err {worst:.2e}"

    # the implementation takes exactly this gradient step
    stepped = align_step(x, y, AlignmentState(q=q, iteration=0), matcher="hungarian")
    alpha = 1.0 * 12 / (2.0 * 120)
    assert np.array_equal(stepped.q.q, project_orthogonal(q.q - alpha * grad).q)

    inst = synth_generate(200, 10, 0.1, seed=55)
    orth_errs = []

    def watch(state):
        e = state.q.q.T @ state.q.q - np.eye(10)
        orth_errs.append(float(np.linalg.norm(e)))

    align(inst.x.matrix, inst.y.matrix, OrthogonalMap(q=np.eye(10)),
          total_iters=4000, batch_size_initial=50, rng_seed=55, step_callback=watch)
    assert len(orth_errs) == 4000
    worst_orth = max(orth_errs)
    assert worst_orth < 1e-8, f"worst orthogonality drift {worst_orth:.2e}"
    report(5, f"gradient rel err {worst:.2e}, orthogonality over 4000 steps "
              f"{worst_orth:.2e}")


def _pipeline_accuracy(sigma, seed):
    """Convex init on a 500-row band, 2000 stochastic steps, exact polish."""
    inst = synth_generate(2000, 20, sigma, seed)
    x = inst.x.matrix
    y = inst.y.matrix
    perm = inst.true_permutation.mapping

    m = 500
    band = np.flatnonzero(perm < m)
    grams = build_grams(x[:m], y[band], m)
    plan, _ = fw_solve(grams, max_iters=300)
    q0 = extract_q0(x[:m], y[band], plan)

    state = align(x, y, q0, total_iters=2000, batch_size_initial=512,
                  batch_doubling=False, rng_seed=seed)

    qm = state.q.q
    for _ in range(5):
        p, _ = solve_lap(sqdist(x @ qm, y))
        qm = fit_orthogonal(x, y[p.mapping]).q
    return matching_accuracy(inst, OrthogonalMap(q=qm), "exact")


def test_criterion_06_end_to_end_synthetic_recovery():
    t0 = time.perf_counter()
    seed = 1234
    base = synth_generate(2000, 20, 0.0, seed)
    mean_norm = float(np.linalg.norm(base.x.matrix, axis=1).mean())

    acc_clean = _pipeline_accuracy(0.0, seed)
    acc_noisy = _pipeline_accuracy(0.05 * mean_norm, seed)
    elapsed = time.perf_counter() - t0

    assert acc_clean >= 0.99, f"sigma=0 accuracy {acc_clean:.4f}"
    assert acc_noisy >= 0.90, f"noisy accuracy {acc_noisy:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    report(6, f"accuracy {acc_clean:.4f} (clean) / {acc_noisy:.4f} (noisy), "
              f"{elapsed:.0f}s")


def test_criterion_07_convex_init_beats_random_init():
    # At this noise level (per-coordinate sigma is 10% of the mean row
    # norm, so the noise carries most of the energy at d=40) neither
    # start recovers the permutation outright; the relaxation still
    # lands several times more correct pairs than chance.
    convex, random_ = [], []
    for seed in range(4200, 4205):
        base = synth_generate(300, 40, 0.0, seed)
        mean_norm = float(np.linalg.norm(base.x.matrix, axis=1).mean())
        inst = synth_generate(300, 40, 0.1 * mean_norm, seed)
        x = inst.x.matrix
        y = inst.y.matrix

        grams = build_grams(x, y, 300)
        plan, _ = fw_solve(grams, max_iters=150)
        q0 = extract_q0(x, y, plan)
        convex.append(matching_accuracy(inst, q0, "exact"))

        qr = project_orthogonal(PortableRng(seed).spawn(1).normal((40, 40)))
        random_.append(matching_accuracy(inst, qr, "exact"))

    mean_c = float(np.mean(convex))
    mean_r = float(np.mean(random_))
    assert mean_c > mean_r, f"convex {mean_c:.4f} vs random {mean_r:.4f}"
    report(7, f"mean accuracy convex {mean_c:.4f} > random {mean_r:.4f} "
              f"over 5 seeds")


def test_criterion_08_retrieval_scorers_match_naive(monkeypatch):
    rng = np.random.default_rng(808)
    q = rng.standard_normal((50, 8))
    t = rng.standard_normal((30, 8))
    q /= np.linalg.norm(q, axis=1)[:, None]
    t /= np.linalg.norm(t, axis=1)[:, None]
    cos = q @ t.T

    k = 10
    r_q = np.sort(cos, axis=1)[:, -k:].mean(axis=1)
    r_t = np.sort(cos, axis=0)[-k:, :].mean(axis=0)
    naive_csls = np.empty_like(cos)
    for i in range(50):
        for j in range(30):
            naive_csls[i, j] = 2.0 * cos[i, j] - r_q[i] - r_t[j]

    beta = 25.0
    naive_isf = np.empty_like(cos)
    for j in range(30):
        w = np.exp(beta * cos[:, j])
        naive_isf[:, j] = w / w.sum()

    # The scores retrieve ranks, read in full, in one block and in blocks
    # of 7 queries.
    err_csls = err_isf = col_err = 0.0
    for size in (1024, 7):
        monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", size)
        got_csls = retrieved_scores(q, t, RetrievalConfig(kind="csls", csls_k=k))
        err_csls = max(err_csls, float(np.abs(got_csls - naive_csls).max()))
        got_isf = retrieved_scores(q, t, RetrievalConfig(kind="isf", isf_beta=beta))
        err_isf = max(err_isf, float(np.abs(got_isf - naive_isf).max()))
        col_err = max(col_err, float(np.abs(got_isf.sum(axis=0) - 1.0).max()))
    assert err_csls <= 1e-12, f"csls deviation {err_csls:.2e}"
    assert err_isf <= 1e-12, f"isf deviation {err_isf:.2e}"
    assert col_err <= 1e-12, f"isf column sums off by {col_err:.2e}"

    single = retrieve(q[:1], t[:1], RetrievalConfig(kind="csls", csls_k=1))
    assert single.scores[0, 0] == 0.0
    report(8, f"csls err {err_csls:.2e}, isf err {err_isf:.2e}, "
              f"column sums {col_err:.2e}, singleton exact, via retrieve")


def test_criterion_09_accuracy_and_cost_grow_with_batch_size():
    inst = synth_generate(2000, 20, 0.0, seed=77)
    mean_acc = {}
    mean_time = {}
    for b in (100, 400, 1600):
        accs, times = [], []
        for s in range(3):
            seed = 77 + 1000 * (s + 1)
            g = PortableRng(seed).spawn(7).normal((20, 20))
            q0 = project_orthogonal(inst.true_rotation.q + 0.15 * g)
            t0 = time.perf_counter()
            state = align(inst.x.matrix, inst.y.matrix, q0, total_iters=150,
                          batch_size_initial=b, batch_doubling=False,
                          matcher="hungarian", rng_seed=seed)
            times.append(time.perf_counter() - t0)
            accs.append(matching_accuracy(inst, state.q, "nn"))
        mean_acc[b] = float(np.mean(accs))
        mean_time[b] = float(np.mean(times))

    assert mean_acc[100] <= mean_acc[400] <= mean_acc[1600], \
        f"accuracy not monotone: {mean_acc}"
    assert mean_time[100] < mean_time[400] < mean_time[1600], \
        f"wall time not monotone: {mean_time}"
    report(9, "accuracy " + " <= ".join(f"{mean_acc[b]:.4f}" for b in
                                        (100, 400, 1600))
           + ", time " + " < ".join(f"{mean_time[b]:.2f}s" for b in
                                    (100, 400, 1600)))


def _run_cli(workdir, *argv):
    # cwd is a temp dir, so a relative PYTHONPATH (e.g. "src") would not
    # resolve there; prepend the absolute root of the imported package.
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(wproc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "wproc.cli", "--threads", "1", *map(str, argv)]
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _pipeline_artifacts(base):
    os.makedirs(base, exist_ok=True)
    _run_cli(base, "synth", "--n", 60, "--d", 6, "--sigma", 0.1,
             "--seed", 9, "--out", "toy")
    _run_cli(base, "init", "toy.src.vec", "toy.tgt.vec", "--out", "q0.map",
             "--fw-size", 40, "--fw-iters", 30)
    _run_cli(base, "align", "toy.src.vec", "toy.tgt.vec", "--out", "final.map",
             "--init", "q0.map", "--iters", 25, "--batch-size", 20,
             "--no-batch-doubling", "--seed", 5, "--loss-csv", "loss.csv")
    _run_cli(base, "translate", "toy.src.vec", "toy.tgt.vec",
             "--map", "final.map", "--out", "words.tsv",
             "--retrieval", "nn", "--topk", 2)
    names = ("toy.src.vec", "toy.tgt.vec", "toy.map", "toy.lex",
             "q0.map", "q0.map.fw_trace.csv", "final.map", "loss.csv",
             "words.tsv")
    out = {}
    for name in names:
        with open(os.path.join(base, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_10_single_thread_runs_are_byte_identical(tmp_path):
    first = _pipeline_artifacts(str(tmp_path / "run1"))
    second = _pipeline_artifacts(str(tmp_path / "run2"))
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(10, f"{len(first)} artifacts byte-identical across invocations")


MUSE_HELP = (
    "full-data benchmark; set WPROC_MUSE_DIR to a directory holding "
    "wiki.en.vec, wiki.es.vec and en-es.5000-6500.txt from the public "
    "MUSE release to run it (takes tens of minutes)"
)


@pytest.mark.skipif("WPROC_MUSE_DIR" not in os.environ, reason=MUSE_HELP)
def test_criterion_11_muse_en_es_benchmark():
    from wproc.data_io import EmbeddingSet, load_lexicon, load_vec
    from wproc.evaluation import evaluate_bli
    from wproc.preprocess import preprocess
    from wproc.refine import refine
    from wproc.retrieval import RetrievalConfig

    root = os.environ["WPROC_MUSE_DIR"]
    src = load_vec(os.path.join(root, "wiki.en.vec"), max_rows=200000)
    tgt = load_vec(os.path.join(root, "wiki.es.vec"), max_rows=200000)
    lex = load_lexicon(os.path.join(root, "en-es.5000-6500.txt"))
    xs = preprocess(src.matrix, "norm,center,norm", labels=src.labels)
    ys = preprocess(tgt.matrix, "norm,center,norm", labels=tgt.labels)

    grams = build_grams(xs, ys, 2500)
    plan, _ = fw_solve(grams, max_iters=300)
    q0 = extract_q0(xs[:2500], ys[:2500], plan)
    state = align(xs, ys, q0, total_iters=4000, batch_size_initial=500,
                  sample_pool=20000, rng_seed=0)

    src_p = EmbeddingSet(labels=src.labels, matrix=xs)
    tgt_p = EmbeddingSet(labels=tgt.labels, matrix=ys)
    rcfg = RetrievalConfig(kind="csls", csls_k=10)
    unrefined = evaluate_bli(src_p, tgt_p, state.q, lex, rcfg, ks=(1,))
    p1 = 100.0 * unrefined.precision_at[1]
    assert abs(p1 - 79.8) <= 2.0, f"unrefined P@1 {p1:.1f}"

    refined = refine(xs, ys, state.q, epochs=5, csls_k=10, candidate_cap=20000)
    scored = evaluate_bli(src_p, tgt_p, refined.q, lex, rcfg, ks=(1,))
    p1r = 100.0 * scored.precision_at[1]
    assert abs(p1r - 82.8) <= 1.5, f"refined P@1 {p1r:.1f}"
    report(11, f"P@1 unrefined {p1:.1f}, refined {p1r:.1f}")

"""Command line front end.

Subcommands compose the pipeline through files: embeddings in, maps and
reports out.  Every run writes a JSON manifest next to its primary
output recording the exact flags, seed, library versions, and phase
timings; `replay` re-executes a manifest's argument vector, which
reproduces the outputs byte for byte in single-threaded mode.

Heavy imports happen inside command bodies so the thread cap from
--threads (or WPROC_THREADS) lands in the environment before the
numeric libraries initialize their pools.

Exit codes: 0 success, 2 parse/format, 3 configuration, 4 numeric
degeneracy, 5 empty result, 6 I/O.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_EMPTY = 5
EXIT_IO = 6

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(n: int):
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "wproc": __version__,
    }


def _write_manifest(args, argv, timings: dict, outputs: list, manifest_path: str):
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    doc = {
        "command": args.command,
        "argv": list(argv),
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "versions": _versions(),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "outputs": sorted(outputs),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_pair(args):
    """Load and preprocess both embedding sets per the shared flags."""
    from .data_io import load_vec
    from .preprocess import PreprocessSpec, preprocess

    src = load_vec(args.src, args.max_vocab)
    tgt = load_vec(args.tgt, args.max_vocab)
    spec = PreprocessSpec.parse(args.preprocess)
    xs = preprocess(src.matrix, spec, labels=src.labels)
    ys = preprocess(tgt.matrix, spec, labels=tgt.labels)
    return src, tgt, xs, ys


def _add_pair_flags(p):
    p.add_argument("src", help="source embedding .vec file")
    p.add_argument("tgt", help="target embedding .vec file")
    p.add_argument("--max-vocab", type=int, default=None,
                   help="load only the first N rows of each file")
    p.add_argument("--preprocess", default="norm,center,norm",
                   help="comma list of steps drawn from {norm, center}")


def _add_retrieval_flags(p):
    p.add_argument("--retrieval", choices=("nn", "csls", "isf"), default="csls")
    p.add_argument("--csls-k", type=int, default=10)
    p.add_argument("--isf-beta", type=float, default=25.0)
    p.add_argument("--candidate-cap", type=int, default=200000)


def _retrieval_config(args, cap=None):
    from .retrieval import RetrievalConfig

    return RetrievalConfig(
        kind=args.retrieval,
        csls_k=args.csls_k,
        isf_beta=args.isf_beta,
        candidate_cap=cap if cap is not None else args.candidate_cap,
    )


def _run_convex_init(xs, ys, fw_size, fw_iters, fw_gap_tol):
    from .qap_init import FwConfig, build_grams, extract_q0, fw_solve

    m = min(fw_size, xs.shape[0], ys.shape[0])
    grams = build_grams(xs, ys, m)
    cfg = FwConfig(max_iters=fw_iters, gap_tol=fw_gap_tol)
    plan, trace = fw_solve(grams, cfg)
    q0 = extract_q0(xs[:m], ys[:m], plan)
    return q0, plan, trace


def cmd_init(args, argv) -> int:
    from .data_io import save_map

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    timings["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    q0, plan, trace = _run_convex_init(xs, ys, args.fw_size, args.fw_iters,
                                       args.fw_gap_tol)
    timings["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_map(args.out, q0)
    trace_path = args.out + ".fw_trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "objective"])
        for i, v in enumerate(trace):
            w.writerow([i, "%.17g" % v])
    timings["write"] = time.perf_counter() - t0
    outputs = [args.out, trace_path]
    _write_manifest(args, argv, timings, outputs, args.out + ".manifest.json")
    print(f"wrote {args.out} (fw iterations {plan.iterations}, "
          f"objective {trace[0]:.6g} -> {trace[-1]:.6g})")
    return EXIT_OK


def _initial_map(args, xs, ys):
    from .data_io import load_map
    from .linalg import project_orthogonal
    from .rng import PortableRng

    if args.init == "convex":
        q0, _, _ = _run_convex_init(xs, ys, args.fw_size, args.fw_iters,
                                    args.fw_gap_tol)
        return q0
    if args.init == "random":
        rng = PortableRng(args.seed).spawn(1)
        return project_orthogonal(rng.normal((xs.shape[1], xs.shape[1])))
    return load_map(args.init)


def cmd_align(args, argv) -> int:
    from .aligner import AlignmentConfig, align
    from .data_io import load_lexicon, save_map
    from .errors import EmptyResultError
    from .procrustes import fit_orthogonal
    from .sinkhorn import SinkhornConfig

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    timings["load"] = time.perf_counter() - t0
    outputs = [args.out]

    if args.supervised:
        lex = load_lexicon(args.supervised)
        spos = src.index()
        tpos = tgt.index()
        rows_s = []
        rows_t = []
        for a, b in lex.pairs:
            if a in spos and b in tpos:
                rows_s.append(spos[a])
                rows_t.append(tpos[b])
        if not rows_s:
            raise EmptyResultError("no lexicon pair is inside both vocabularies")
        t0 = time.perf_counter()
        q = fit_orthogonal(xs[rows_s], ys[rows_t])
        timings["solve"] = time.perf_counter() - t0
        save_map(args.out, q)
        _write_manifest(args, argv, timings, outputs, args.out + ".manifest.json")
        print(f"wrote {args.out} (supervised fit on {len(rows_s)} pairs)")
        return EXIT_OK

    t0 = time.perf_counter()
    q0 = _initial_map(args, xs, ys)
    timings["init"] = time.perf_counter() - t0
    sink = None
    if args.sinkhorn_eps is not None:
        sink = SinkhornConfig(epsilon=args.sinkhorn_eps)
    cfg = AlignmentConfig(
        total_iters=args.iters,
        batch_size_initial=args.batch_size,
        batch_doubling=not args.no_batch_doubling,
        step_size=args.lr,
        matcher=args.matcher,
        sinkhorn=sink,
        sample_pool=args.sample_pool,
        rng_seed=args.seed,
    )
    t0 = time.perf_counter()
    state = align(xs, ys, q0, cfg)
    timings["align"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_map(args.out, state.q)
    if args.loss_csv:
        with open(args.loss_csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "loss"])
            for it, loss in state.loss_history:
                w.writerow([it, "%.17g" % loss])
        outputs.append(args.loss_csv)
    timings["write"] = time.perf_counter() - t0
    _write_manifest(args, argv, timings, outputs, args.out + ".manifest.json")
    final_loss = state.loss_history[-1][1]
    print(f"wrote {args.out} ({state.iteration} iterations, "
          f"final batch loss {final_loss:.6g})")
    return EXIT_OK


def cmd_refine(args, argv) -> int:
    from .data_io import load_map, save_map
    from .refine import refine
    from .retrieval import RetrievalConfig

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    q = load_map(args.map)
    timings["load"] = time.perf_counter() - t0
    cfg = RetrievalConfig(
        kind="csls", csls_k=args.csls_k, candidate_cap=args.dict_cap
    )
    t0 = time.perf_counter()
    result = refine(xs, ys, q, epochs=args.epochs, cfg=cfg)
    timings["refine"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_map(args.out, result.q)
    log_path = args.out + ".epochs.csv"
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "dictionary_size"])
        for i, s in enumerate(result.dictionary_sizes, start=1):
            w.writerow([i, s])
    timings["write"] = time.perf_counter() - t0
    outputs = [args.out, log_path]
    _write_manifest(args, argv, timings, outputs, args.out + ".manifest.json")
    print(f"wrote {args.out} (status {result.status}, "
          f"dictionary sizes {list(result.dictionary_sizes)})")
    return EXIT_OK if result.status == "completed" else EXIT_EMPTY


def cmd_translate(args, argv) -> int:
    from .data_io import load_map
    from .retrieval import retrieve

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    q = load_map(args.map)
    timings["load"] = time.perf_counter() - t0
    n_q = src.size if args.max_queries is None else min(args.max_queries, src.size)
    t0 = time.perf_counter()
    table = retrieve(xs[:n_q] @ q.q, ys, _retrieval_config(args), topk=args.topk)
    timings["retrieve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    with open(args.out, "w", encoding="utf-8") as fh:
        for i in range(n_q):
            word = src.labels[i]
            for rank in range(table.depth):
                j = int(table.indices[i, rank])
                fh.write(
                    f"{word}\t{rank + 1}\t{tgt.labels[j]}\t"
                    f"{'%.17g' % table.scores[i, rank]}\n"
                )
    timings["write"] = time.perf_counter() - t0
    _write_manifest(args, argv, timings, [args.out], args.out + ".manifest.json")
    print(f"wrote {args.out} ({n_q} queries, top {args.topk})")
    return EXIT_OK


def cmd_eval(args, argv) -> int:
    from .data_io import load_lexicon, load_map
    from .evaluation import evaluate_bli

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    q = load_map(args.map)
    lex = load_lexicon(args.lexicon)
    timings["load"] = time.perf_counter() - t0
    ks = tuple(int(k) for k in args.ks.split(","))
    # Evaluation scores preprocessed vectors; wrap them back into sets
    # so word lookup still goes through the labels.
    from .data_io import EmbeddingSet

    src_p = EmbeddingSet(labels=src.labels, matrix=xs)
    tgt_p = EmbeddingSet(labels=tgt.labels, matrix=ys)
    t0 = time.perf_counter()
    report = evaluate_bli(src_p, tgt_p, q, lex, _retrieval_config(args), ks=ks)
    timings["evaluate"] = time.perf_counter() - t0
    doc = report.as_dict()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args, argv, timings, [args.out], args.out + ".manifest.json")
    print(f"queries: {report.n_queries}   oov skipped: {report.oov_skipped}")
    for k in sorted(report.precision_at):
        print(f"  P@{k}: {report.precision_at[k]:.4f}")
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    from .data_io import save_map, save_vec, synth_generate

    timings = {}
    t0 = time.perf_counter()
    inst = synth_generate(args.n, args.d, args.sigma, args.seed)
    timings["generate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    paths = {
        "src": args.out + ".src.vec",
        "tgt": args.out + ".tgt.vec",
        "map": args.out + ".map",
        "lex": args.out + ".lex",
    }
    save_vec(paths["src"], inst.x)
    save_vec(paths["tgt"], inst.y)
    save_map(paths["map"], inst.true_rotation)
    with open(paths["lex"], "w", encoding="utf-8") as fh:
        for a, b in inst.gold_pairs():
            fh.write(f"{a} {b}\n")
    timings["write"] = time.perf_counter() - t0
    outputs = sorted(paths.values())
    _write_manifest(args, argv, timings, outputs, args.out + ".manifest.json")
    print(f"wrote {', '.join(outputs)}")
    return EXIT_OK


def cmd_plot(args, argv) -> int:
    from .data_io import load_map
    from .linalg import pca_project

    import numpy as np

    timings = {}
    t0 = time.perf_counter()
    src, tgt, xs, ys = _load_pair(args)
    q = load_map(args.map)
    timings["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    stacked = np.vstack([xs @ q.q, ys])
    coords = pca_project(stacked, 2)
    timings["project"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "set", "pc1", "pc2"])
        labels = list(src.labels) + list(tgt.labels)
        sets = ["src"] * src.size + ["tgt"] * tgt.size
        for lab, side, row in zip(labels, sets, coords):
            w.writerow([lab, side, "%.17g" % row[0], "%.17g" % row[1]])
    timings["write"] = time.perf_counter() - t0
    _write_manifest(args, argv, timings, [args.out], args.out + ".manifest.json")
    print(f"wrote {args.out} ({src.size + tgt.size} points)")
    return EXIT_OK


def cmd_bench_batch_size(args, argv) -> int:
    from .aligner import AlignmentConfig, align
    from .data_io import synth_generate
    from .evaluation import matching_accuracy
    from .linalg import project_orthogonal
    from .rng import PortableRng

    sizes = [int(s) for s in args.sizes.split(",")]
    timings = {}
    t0 = time.perf_counter()
    inst = synth_generate(args.n, args.d, args.sigma, args.seed)
    timings["generate"] = time.perf_counter() - t0
    rows = []
    for b in sizes:
        for s in range(args.seeds):
            seed = args.seed + 1000 * (s + 1)
            # Start each run from a mildly perturbed copy of the true map so
            # the sweep isolates the batch-size effect; from a cold random
            # start every size fails alike and the sweep measures nothing.
            g = PortableRng(seed).spawn(7).normal((args.d, args.d))
            q0 = project_orthogonal(inst.true_rotation.q + 0.15 * g)
            cfg = AlignmentConfig(
                total_iters=args.iters,
                batch_size_initial=b,
                batch_doubling=False,
                step_size=args.lr,
                matcher=args.matcher,
                rng_seed=seed,
            )
            t0 = time.perf_counter()
            state = align(inst.x.matrix, inst.y.matrix, q0, cfg)
            dt = time.perf_counter() - t0
            acc = matching_accuracy(inst, state.q, "nn")
            rows.append((b, seed, acc))
            timings[f"align_b{b}_seed{seed}"] = dt
            print(f"b={b} seed={seed}: accuracy {acc:.4f} in {dt:.1f}s")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["batch_size", "seed", "accuracy"])
        for b, seed, acc in rows:
            w.writerow([b, seed, "%.17g" % acc])
    _write_manifest(args, argv, timings, [args.out], args.out + ".manifest.json")
    for b in sizes:
        accs = [a for bb, _, a in rows if bb == b]
        print(f"b={b}: mean accuracy {sum(accs) / len(accs):.4f}")
    return EXIT_OK


def cmd_replay(args, argv) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    stored = doc.get("argv")
    if not isinstance(stored, list) or not stored:
        from .errors import ParseError

        raise ParseError(f"manifest {args.manifest} has no argv to replay")
    print(f"replaying: wproc {' '.join(stored)}")
    return main(stored)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wproc",
        description="Align two embedding sets without known correspondence.",
    )
    p.add_argument("--threads", type=int, default=None,
                   help="cap numeric thread pools (env WPROC_THREADS as fallback); "
                        "1 guarantees bit-reproducible outputs")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("init", help="convex-relaxation initial map")
    _add_pair_flags(pi)
    pi.add_argument("--out", required=True, help="output map path")
    pi.add_argument("--fw-size", type=int, default=2500,
                    help="rows per set entering the relaxation")
    pi.add_argument("--fw-iters", type=int, default=300)
    pi.add_argument("--fw-gap-tol", type=float, default=None)
    pi.add_argument("--seed", type=int, default=0)
    pi.set_defaults(func=cmd_init)

    pa = sub.add_parser("align", help="stochastic alignment run")
    _add_pair_flags(pa)
    pa.add_argument("--out", required=True)
    pa.add_argument("--init", default="convex",
                    help="convex, random, or a saved map path")
    pa.add_argument("--supervised", default=None, metavar="LEXICON",
                    help="skip the stochastic run; fit on lexicon pairs")
    pa.add_argument("--batch-size", type=int, default=500)
    pa.add_argument("--iters", type=int, default=4000)
    pa.add_argument("--lr", type=float, default=1.0)
    pa.add_argument("--matcher", choices=("auto", "hungarian", "sinkhorn"),
                    default="auto")
    pa.add_argument("--sinkhorn-eps", type=float, default=None)
    pa.add_argument("--no-batch-doubling", action="store_true")
    pa.add_argument("--sample-pool", type=int, default=None)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--fw-size", type=int, default=2500)
    pa.add_argument("--fw-iters", type=int, default=300)
    pa.add_argument("--fw-gap-tol", type=float, default=None)
    pa.add_argument("--loss-csv", default=None)
    pa.set_defaults(func=cmd_align)

    pr = sub.add_parser("refine", help="mutual-NN dictionary refinement")
    _add_pair_flags(pr)
    pr.add_argument("--map", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--epochs", type=int, default=5)
    pr.add_argument("--csls-k", type=int, default=10)
    pr.add_argument("--dict-cap", type=int, default=20000)
    pr.set_defaults(func=cmd_refine)

    pt = sub.add_parser("translate", help="emit top-k translations as TSV")
    _add_pair_flags(pt)
    _add_retrieval_flags(pt)
    pt.add_argument("--map", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--topk", type=int, default=1)
    pt.add_argument("--max-queries", type=int, default=None)
    pt.set_defaults(func=cmd_translate)

    pe = sub.add_parser("eval", help="lexicon-induction precision")
    _add_pair_flags(pe)
    _add_retrieval_flags(pe)
    pe.add_argument("--map", required=True)
    pe.add_argument("--lexicon", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--ks", default="1,5,10")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("synth", help="generate a synthetic instance")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--sigma", type=float, default=0.0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, help="output path prefix")
    ps.set_defaults(func=cmd_synth)

    pp = sub.add_parser("plot", help="2-D PCA coordinates of both sets")
    _add_pair_flags(pp)
    pp.add_argument("--map", required=True)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=cmd_plot)

    pb = sub.add_parser("bench-batch-size",
                        help="accuracy/time sweep over batch sizes")
    pb.add_argument("--n", type=int, default=2000)
    pb.add_argument("--d", type=int, default=20)
    pb.add_argument("--sigma", type=float, default=0.0)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--seeds", type=int, default=3)
    pb.add_argument("--sizes", default="100,200,400,800,1600")
    pb.add_argument("--iters", type=int, default=150)
    pb.add_argument("--lr", type=float, default=1.0)
    pb.add_argument("--matcher", choices=("auto", "hungarian", "sinkhorn"),
                    default="hungarian")
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_bench_batch_size)

    pre = sub.add_parser("replay", help="re-run a stored manifest")
    pre.add_argument("manifest")
    pre.set_defaults(func=cmd_replay)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = args.threads
    if threads is None:
        env = os.environ.get("WPROC_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                print(f"error: WPROC_THREADS={env!r} is not an integer",
                      file=sys.stderr)
                return EXIT_CONFIG
    if threads is not None:
        if threads < 1:
            print("error: --threads must be at least 1", file=sys.stderr)
            return EXIT_CONFIG
        _apply_threads(threads)

    from .errors import (
        ConfigError,
        DegenerateFitError,
        DegenerateProjectionError,
        EmptyResultError,
        IntegrityError,
        InvalidArgumentError,
        InvalidInputError,
        ParseError,
    )

    try:
        code = args.func(args, argv)
        return EXIT_OK if code is None else code
    except (ParseError, IntegrityError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, InvalidArgumentError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFitError, DegenerateProjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EmptyResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

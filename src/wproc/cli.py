"""Command line front end.

Subcommands compose the pipeline through files: embeddings in, maps and
reports out.  Every command that returns, whatever its exit code, then
gets a JSON manifest next to its primary output recording the exact
flags, seed, library versions, phase timings and outputs; a command
that raises gets none.  `replay` re-executes a manifest's argument
vector, which reproduces the outputs byte for byte in single-threaded
mode.

Heavy imports happen inside command bodies so the thread cap from
--threads (or WPROC_THREADS) lands in the environment before the
numeric libraries initialize their pools.

Exit codes: 0 success, 2 parse/format, 3 configuration, 4 numeric
degeneracy, 5 empty result, 6 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

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

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_EMPTY = 5
EXIT_IO = 6

# Error class to exit code; any other exception propagates.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    IntegrityError: EXIT_PARSE,
    json.JSONDecodeError: EXIT_PARSE,
    ConfigError: EXIT_CONFIG,
    InvalidArgumentError: EXIT_CONFIG,
    InvalidInputError: EXIT_CONFIG,
    DegenerateFitError: EXIT_NUMERIC,
    DegenerateProjectionError: EXIT_NUMERIC,
    EmptyResultError: EXIT_EMPTY,
    OSError: EXIT_IO,
}

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


class _Run:
    """What a command records for its manifest: phase timings and outputs."""

    def __init__(self):
        self.timings = {}
        self.outputs = []

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0


def _write_manifest(args, argv, run: _Run):
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    doc = {
        "command": args.command,
        "argv": list(argv),
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "versions": _versions(),
        "timings": {k: round(v, 6) for k, v in run.timings.items()},
        "outputs": sorted(run.outputs),
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _at_least_one(value, flag: str):
    if value is not None and value < 1:
        raise InvalidArgumentError(f"{flag} must be at least 1, got {value}")


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"{flag} must be a comma list of integers, got {text!r}") from None


def _load_pair(args):
    """Both embedding sets, preprocessed per the shared flags."""
    from .data_io import EmbeddingSet, load_vec
    from .preprocess import PreprocessSpec, preprocess

    raw = [load_vec(path, args.max_vocab) for path in (args.src, args.tgt)]
    spec = PreprocessSpec.parse(args.preprocess)
    return [EmbeddingSet(labels=e.labels,
                         matrix=preprocess(e.matrix, spec, labels=e.labels))
            for e in raw]


def _add_pair_flags(p):
    p.add_argument("src", help="source embedding .vec file")
    p.add_argument("tgt", help="target embedding .vec file")
    p.add_argument("--max-vocab", type=int, default=None,
                   help="load only the first N rows of each file")
    p.add_argument("--preprocess", default="norm,center,norm",
                   help="comma list of steps drawn from {norm, center}")


def _add_fw_flags(p):
    p.add_argument("--fw-size", type=int, default=2500,
                   help="rows per set entering the relaxation")
    p.add_argument("--fw-iters", type=int, default=300)
    p.add_argument("--fw-gap-tol", type=float, default=None)


def _add_retrieval_flags(p):
    p.add_argument("--retrieval", choices=("nn", "csls", "isf"), default="csls")
    p.add_argument("--csls-k", type=int, default=10)
    p.add_argument("--isf-beta", type=float, default=25.0)
    p.add_argument("--candidate-cap", type=int, default=200000)


def _retrieval_config(args):
    from .retrieval import RetrievalConfig

    return RetrievalConfig(kind=args.retrieval, csls_k=args.csls_k,
                           isf_beta=args.isf_beta, candidate_cap=args.candidate_cap)


def _run_convex_init(args, xs, ys):
    from .qap_init import FwConfig, build_grams, extract_q0, fw_solve

    m = min(args.fw_size, xs.shape[0], ys.shape[0])
    grams = build_grams(xs, ys, m)
    plan, trace = fw_solve(grams, FwConfig(max_iters=args.fw_iters,
                                           gap_tol=args.fw_gap_tol))
    return extract_q0(grams.x, grams.y, plan), plan, trace


def cmd_init(args, run) -> int:
    from .data_io import save_map

    with run.phase("load"):
        src, tgt = _load_pair(args)
    with run.phase("solve"):
        q0, plan, trace = _run_convex_init(args, src.matrix, tgt.matrix)
    trace_path = args.out + ".fw_trace.csv"
    with run.phase("write"):
        save_map(args.out, q0)
        _write_csv(trace_path, ["iter", "objective"],
                   ([i, "%.17g" % v] for i, v in enumerate(trace)))
    run.outputs += [args.out, trace_path]
    status = "gap_tol met" if plan.converged else "stopped at the iteration cap"
    print(f"wrote {args.out} (fw iterations {plan.iterations}, "
          f"objective {trace[0]:.6g} -> {trace[-1]:.6g}, {status})")
    return EXIT_OK


def _initial_map(args, xs, ys):
    from .data_io import load_map
    from .linalg import project_orthogonal
    from .rng import PortableRng

    if args.init == "convex":
        return _run_convex_init(args, xs, ys)[0]
    if args.init == "random":
        rng = PortableRng(args.seed).spawn(1)
        return project_orthogonal(rng.normal((xs.shape[1], xs.shape[1])))
    return load_map(args.init)


def cmd_align(args, run) -> int:
    from .aligner import AlignmentConfig, align
    from .data_io import load_lexicon, save_map
    from .procrustes import fit_orthogonal

    with run.phase("load"):
        src, tgt = _load_pair(args)
    xs, ys = src.matrix, tgt.matrix
    run.outputs.append(args.out)

    if args.supervised:
        lex = load_lexicon(args.supervised)
        spos, tpos = src.index(), tgt.index()
        hits = [(a, b) for a, b in lex.pairs if a in spos and b in tpos]
        if not hits:
            raise EmptyResultError("no lexicon pair is inside both vocabularies")
        with run.phase("solve"):
            q = fit_orthogonal(xs[[spos[a] for a, _ in hits]],
                               ys[[tpos[b] for _, b in hits]])
        save_map(args.out, q)
        print(f"wrote {args.out} (supervised fit on {len(hits)} pairs)")
        return EXIT_OK

    cfg = AlignmentConfig(
        total_iters=args.iters,
        batch_size_initial=args.batch_size,
        batch_doubling=not args.no_batch_doubling,
        step_size=args.lr,
        matcher=args.matcher,
        sinkhorn_eps=args.sinkhorn_eps,
        sample_pool=args.sample_pool,
        rng_seed=args.seed,
    )
    with run.phase("init"):
        q0 = _initial_map(args, xs, ys)
    with run.phase("align"):
        state = align(xs, ys, q0, cfg)
    with run.phase("write"):
        save_map(args.out, state.q)
        if args.loss_csv:
            _write_csv(args.loss_csv, ["iter", "loss"],
                       ([it, "%.17g" % loss] for it, loss in state.loss_history))
            run.outputs.append(args.loss_csv)
    final_loss = state.loss_history[-1][1]
    missed = state.plans_nonconverged
    if missed:
        print(f"warning: {missed} Sinkhorn plans missed the marginal tolerance; "
              "their steps used them anyway", file=sys.stderr)
    print(f"wrote {args.out} ({state.iteration} iterations, "
          f"final batch loss {final_loss:.6g}, {missed} Sinkhorn plans missed "
          f"tolerance, worst marginal error {state.worst_marginal_error:.3g})")
    return EXIT_OK


def cmd_refine(args, run) -> int:
    from .data_io import load_map, save_map
    from .refine import refine

    with run.phase("load"):
        src, tgt = _load_pair(args)
        q = load_map(args.map)
    with run.phase("refine"):
        result = refine(src.matrix, tgt.matrix, q, epochs=args.epochs,
                        csls_k=args.csls_k, candidate_cap=args.dict_cap)
    log_path = args.out + ".epochs.csv"
    with run.phase("write"):
        save_map(args.out, result.q)
        _write_csv(log_path, ["epoch", "dictionary_size"],
                   enumerate(result.dictionary_sizes, start=1))
    run.outputs += [args.out, log_path]
    print(f"wrote {args.out} (status {result.status}, "
          f"dictionary sizes {list(result.dictionary_sizes)})")
    return EXIT_OK if result.status == "completed" else EXIT_EMPTY


def cmd_translate(args, run) -> int:
    from .data_io import load_map
    from .retrieval import retrieve

    _at_least_one(args.max_queries, "--max-queries")
    with run.phase("load"):
        src, tgt = _load_pair(args)
        q = load_map(args.map)
    n_q = src.size if args.max_queries is None else min(args.max_queries, src.size)
    # CSLS and ISF take per-target statistics over every query, so all
    # rows are scored and the flag only limits what is written.
    with run.phase("retrieve"):
        table = retrieve(src.matrix @ q.q, tgt.matrix, _retrieval_config(args),
                         topk=args.topk)
    with run.phase("write"), open(args.out, "w", encoding="utf-8") as fh:
        for word, row_idx, row_sc in zip(src.labels, table.indices[:n_q].tolist(),
                                         table.scores[:n_q].tolist()):
            for rank, (j, score) in enumerate(zip(row_idx, row_sc), start=1):
                fh.write(f"{word}\t{rank}\t{tgt.labels[j]}\t{'%.17g' % score}\n")
    run.outputs.append(args.out)
    print(f"wrote {args.out} ({n_q} queries, top {args.topk})")
    return EXIT_OK


def cmd_eval(args, run) -> int:
    from .data_io import load_lexicon, load_map
    from .evaluation import evaluate_bli

    ks = _int_list(args.ks, "--ks")
    with run.phase("load"):
        src, tgt = _load_pair(args)
        q = load_map(args.map)
        lex = load_lexicon(args.lexicon)
    with run.phase("evaluate"):
        report = evaluate_bli(src, tgt, q, lex, _retrieval_config(args), ks=ks)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    run.outputs.append(args.out)
    print(f"queries: {report.n_queries}   oov skipped: {report.oov_skipped}")
    for k in sorted(report.precision_at):
        print(f"  P@{k}: {report.precision_at[k]:.4f}")
    return EXIT_OK


def cmd_synth(args, run) -> int:
    from .data_io import save_map, save_vec, synth_generate

    with run.phase("generate"):
        inst = synth_generate(args.n, args.d, args.sigma, args.seed)
    paths = {
        "src": args.out + ".src.vec",
        "tgt": args.out + ".tgt.vec",
        "map": args.out + ".map",
        "lex": args.out + ".lex",
    }
    with run.phase("write"):
        save_vec(paths["src"], inst.x)
        save_vec(paths["tgt"], inst.y)
        save_map(paths["map"], inst.true_rotation)
        with open(paths["lex"], "w", encoding="utf-8") as fh:
            for a, b in inst.gold_pairs():
                fh.write(f"{a} {b}\n")
    run.outputs += sorted(paths.values())
    print(f"wrote {', '.join(run.outputs)}")
    return EXIT_OK


def cmd_plot(args, run) -> int:
    from .data_io import load_map
    from .linalg import pca_project

    import numpy as np

    with run.phase("load"):
        src, tgt = _load_pair(args)
        q = load_map(args.map)
    with run.phase("project"):
        coords = pca_project(np.vstack([src.matrix @ q.q, tgt.matrix]), 2)
    with run.phase("write"):
        labels = list(src.labels) + list(tgt.labels)
        sets = ["src"] * src.size + ["tgt"] * tgt.size
        _write_csv(args.out, ["label", "set", "pc1", "pc2"],
                   ([lab, side, "%.17g" % row[0], "%.17g" % row[1]]
                    for lab, side, row in zip(labels, sets, coords)))
    run.outputs.append(args.out)
    print(f"wrote {args.out} ({src.size + tgt.size} points)")
    return EXIT_OK


def cmd_bench_batch_size(args, run) -> int:
    from .aligner import AlignmentConfig, align
    from .data_io import synth_generate
    from .evaluation import matching_accuracy
    from .linalg import project_orthogonal
    from .rng import PortableRng

    sizes = _int_list(args.sizes, "--sizes")
    _at_least_one(args.seeds, "--seeds")
    with run.phase("generate"):
        inst = synth_generate(args.n, args.d, args.sigma, args.seed)
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
            phase = f"align_b{b}_seed{seed}"
            with run.phase(phase):
                state = align(inst.x.matrix, inst.y.matrix, q0, cfg)
            acc = matching_accuracy(inst, state.q, "nn")
            rows.append((b, seed, acc))
            print(f"b={b} seed={seed}: accuracy {acc:.4f} in {run.timings[phase]:.1f}s")
    _write_csv(args.out, ["batch_size", "seed", "accuracy"],
               ([b, seed, "%.17g" % acc] for b, seed, acc in rows))
    run.outputs.append(args.out)
    for b in sizes:
        accs = [a for bb, _, a in rows if bb == b]
        print(f"b={b}: mean accuracy {sum(accs) / len(accs):.4f}")
    return EXIT_OK


def cmd_replay(args, run) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    stored = doc.get("argv")
    if not isinstance(stored, list) or not stored:
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
    _add_fw_flags(pi)
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
    _add_fw_flags(pa)
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
    pt.add_argument("--max-queries", type=int, default=None, metavar="N",
                    help="write only the first N source rows; every row is "
                         "still scored against the whole source set")
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

    run = _Run()
    try:
        code = args.func(args, run)
        # A replayed command has already written its own manifest.
        if args.func is not cmd_replay:
            _write_manifest(args, argv, run)
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the wproc pipeline: seeded workloads timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One pipeline runs at a time in this single process,
with single-threaded BLAS: a closed loop with one client.  The run sets
up the workload's inputs from the seed several times (``setup_s`` is the
median), then, after one untimed warm-up, repeats the pipeline on them
for ``--seconds`` and reports medians.  Every repetition's outputs are checked and digested; a digest
that differs between repetitions of one seed fails the run.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced
repetitions alternate, and the JSON carries the per-layer metrics of the
traced ones plus the tracing overhead.  Lines before it, prefixed with
``#``, record the machine, the sample counts, the exact counts and
digests, and the per-layer self times.
"""

import os

# BLAS sizes its thread pool when numpy is first imported; the
# CLI's --threads flag cannot change it afterwards in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The library modules, imported up front so no timed repetition pays for
# a first import.
LIBRARY = ("aligner", "assignment", "cli", "data_io", "evaluation", "linalg",
           "preprocess", "procrustes", "qap_init", "refine", "retrieval", "rng",
           "sinkhorn")

# Set-up repeats at least SETUP_MIN times and until SETUP_SECONDS have
# passed, at most SETUP_MAX times.
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 2.0, 50
# The pipeline repeats for --seconds and at least this often (in trace
# mode: this often each, untraced and traced).
MIN_REPS = 2


def environment() -> dict:
    import scipy

    def blas(mod):
        deps = getattr(mod.__config__, "CONFIG", {}).get("Build Dependencies", {})
        return deps.get("blas", {}).get("version", "unknown")

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_setups(workload, seed):
    samples = []
    while len(samples) < SETUP_MIN or (
            sum(samples) < SETUP_SECONDS and len(samples) < SETUP_MAX):
        t0 = perf_counter()
        workload.setup(seed)
        samples.append(perf_counter() - t0)
    return samples


class Repeats:
    """Runs and checks pipelines, and holds what the repetitions agree on."""

    def __init__(self, workload):
        self.workload = workload
        self.ledger = workloads.Ledger()
        self.first = {}  # digest, and counts per traced flag, of the first repetitions
        self.outcomes = {}  # traced flag -> first checked outcome

    def run(self, tracer=None):
        """One repetition; returns its seconds, or None if an operation failed."""
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.workload.pipeline(self.ledger)
            else:
                with tracing.installed(tracer):
                    out = self.workload.pipeline(self.ledger, tracer.span)
        except workloads.OpFailed:
            return None
        seconds = perf_counter() - t0
        failed_before = self.ledger.failed
        self.workload.check(self.ledger, out)
        if tracer is not None:
            out.counts.update(tracing.exact_counts(tracer.spans))
        self._compare(out, tracer is not None)
        if self.ledger.failed > failed_before:
            return None
        self.outcomes.setdefault(tracer is not None, out)
        return seconds

    def _compare(self, out, traced):
        """Same seed, same inputs: the digest and the exact counts must repeat.

        Traced repetitions carry more counts than untraced ones, so counts
        are compared within each kind and digests across both.
        """
        digest, counts = out.digest(), json.dumps(out.counts, sort_keys=True)
        first_digest = self.first.setdefault("digest", digest)
        first_counts = self.first.setdefault(traced, counts)
        if (digest, counts) != (first_digest, first_counts):
            self.ledger.check("determinism", lambda: workloads.require(
                False, f"repetition differs: digest {digest[:16]} counts {counts}"))


def run_untraced(repeats, seconds):
    repeats.run()  # warm-up: first-call costs are not timed
    samples = []
    deadline = perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or perf_counter() < deadline:
        reps += 1
        s = repeats.run()
        if s is not None:
            samples.append(s)
    return samples


def run_traced(repeats, seconds):
    repeats.run()  # warm-up: first-call costs are not timed
    plain, traced, layers, tables = [], [], [], []
    deadline = perf_counter() + seconds
    reps = 0
    while reps < 2 * MIN_REPS or perf_counter() < deadline:
        reps += 1
        if reps % 2:
            s = repeats.run()
            if s is not None:
                plain.append(s)
            continue
        tracer = tracing.Tracer()
        s = repeats.run(tracer)
        if s is not None:
            traced.append(s)
            layers.append(tracing.layer_metrics(tracer.spans))
            tables.append(tracing.layer_table(tracer.spans))
    return plain, traced, layers, tables


def per_layer_result(plain, traced, layers, setup_spans, q0_acc):
    """Medians over the traced repetitions of every per-layer metric."""
    metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
    metrics["qap_init.q0_acc"] = q0_acc
    metrics["data_io.save_vec.s"] = sum(
        sp.duration for sp in setup_spans if sp.name == "data_io.save_vec")
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["pipeline.untraced_s"] = untraced_s
    metrics["pipeline.traced_s"] = traced_s
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return metrics


def print_table(title, values, units, counts):
    print(f"# {title}")
    for name, value in values.items():
        print(f"#   {name:34s} {value:>14.6g} {units.get(name, ''):9s} n={counts.get(name, 1)}")


def print_layers(tables):
    """Median calls, total and self seconds per span name."""
    names = sorted({name for table in tables for name in table})
    print("# layer self times (median over traced repetitions)")
    print(f"#   {'span':34s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name in names:
        rows = [table.get(name, (0, 0.0, 0.0)) for table in tables]
        calls, total, own = (statistics.median(col) for col in zip(*rows))
        print(f"#   {name:34s} {calls:7.0f} {total:10.4f} {own:10.4f}")


def bench(args, workload) -> int:
    print("# env " + json.dumps(environment(), sort_keys=True))
    repeats = Repeats(workload)
    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.installed(setup_tracer):
            workload.setup(args.seed)
        plain, traced, layers, tables = run_traced(repeats, args.seconds)
        samples = traced
    else:
        setups = timed_setups(workload, args.seed)
        samples = run_untraced(repeats, args.seconds)
    ledger = repeats.ledger
    for err in ledger.errors:
        print(f"# FAILED {err}")
    if not samples or (args.trace and not plain):
        print("error: no repetition of the pipeline completed", file=sys.stderr)
        return 1
    out = repeats.outcomes[bool(args.trace)]
    print("# determinism " + json.dumps(
        {"digest": out.digest(), "counts": out.counts, "operations": ledger.attempted},
        sort_keys=True))
    if args.trace:
        print_layers(tables)
        metrics = per_layer_result(plain, traced, layers, setup_tracer.spans,
                                   out.q0_acc)
        units = load_units("per_layer")
        counts = {name: len(traced) for name in metrics}
        counts["pipeline.untraced_s"] = len(plain)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pipeline_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "match_acc": out.match_acc,
            "p_at_1": out.p_at_1,
        }
        units = load_units("end_to_end")
        counts = {"setup_s": len(setups), "pipeline_s": len(samples)}
    print("# pipeline seconds " + " ".join(f"{x:.3f}" for x in samples))
    print(f"# q0_acc {out.q0_acc!r}")
    print(f"# fail_rate {ledger.failed}/{ledger.attempted} operations")
    print_table(f"{workload.name} seed {args.seed}", metrics, units, counts)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def load_units(section) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    # The benchmark measures the checkout it sits in, never an installed copy.
    if not os.path.isfile(os.path.join(ROOT, "src", "wproc", "__init__.py")):
        print(f"error: no library sources under {ROOT}/src", file=sys.stderr)
        return 2
    for name in LIBRARY:
        workloads.lib(name)
    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return bench(args, workloads.WORKLOADS[args.workload](args.scale, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())

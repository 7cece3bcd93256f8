"""Seeded workloads: input generators, pipelines and output checks.

A workload turns a seed into inputs (``setup``), runs its pipeline as a
sequence of operations (``pipeline``) and checks what each operation
produced (``check``).  An operation is one CLI subcommand, run
in-process through ``wproc.cli.main(argv)``.  The CLI reaches the
library through module attributes looked up at call time, so the
wrappers of ``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np


def lib(name: str):
    """A wproc submodule.  ``from wproc import refine`` would give the function."""
    return import_module(f"wproc.{name}")


class OpFailed(Exception):
    """An operation raised or exited non-zero; the pipeline cannot go on."""


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@contextlib.contextmanager
def no_span(name):
    yield None


class Ledger:
    """Attempted and failed operations over a whole benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, name, fn, span=no_span):
        """Run one operation; a raise counts it failed and stops the pipeline."""
        self.attempted += 1
        try:
            with span(name):
                return fn()
        except Exception as exc:  # every failure is counted, none is fatal
            self._fail(name, exc)
            raise OpFailed(name) from exc

    def check(self, name, fn):
        """Check a finished operation's output; a failure counts the operation."""
        try:
            fn()
        except Exception as exc:  # a check that cannot run has failed too
            self._fail(name, exc)

    def _fail(self, name, exc):
        self.failed += 1
        self.errors.append(f"{name}: {type(exc).__name__}: {exc}")


@dataclass
class Outcome:
    """What one pipeline produced, for checks, metrics and determinism."""

    artifacts: dict = field(default_factory=dict)  # name -> bytes
    counts: dict = field(default_factory=dict)
    match_acc: float = float("nan")
    p_at_1: float = float("nan")
    q0_acc: float = 0.0  # stays 0 where no convex init runs
    results: dict = field(default_factory=dict)  # objects the checks inspect

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.artifacts):
            h.update(name.encode() + b"\0" + self.artifacts[name] + b"\0")
        return h.hexdigest()


def _orthogonal(path):
    """A stored map; load_map raises unless it is orthogonal."""
    return lib("data_io").load_map(path)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# The d=300 workloads: seeded embedding files driven through the CLI.


def anisotropic_instance(n: int, d: int, seed: int, decay: float, noise: float,
                         jitter: float):
    """Two embedding sets with a decaying spectrum and a shared frequency order.

    Source column j has scale (j+1)**-decay: isotropic data gives the
    relaxation no rotation signal to find.  Target row i comes from a
    source row less than `jitter` ranks away, as a word keeps roughly its
    frequency rank across languages, so the first rows of both files
    hold mostly the same words.  The gaussian noise has per-coordinate
    scale noise * mean row norm / sqrt(d).
    """
    rng_mod, linalg, assignment, data_io = (
        lib("rng"), lib("linalg"), lib("assignment"), lib("data_io"))
    rng = rng_mod.PortableRng(seed)
    x = rng.normal((n, d)) * (1.0 + np.arange(d)) ** -decay
    qstar = linalg.project_orthogonal(rng.normal((d, d)))
    perm = np.argsort(np.arange(n) + jitter * rng.uniform(n), kind="stable")
    sigma = noise * float(np.linalg.norm(x, axis=1).mean()) / np.sqrt(d)
    y = (x @ qstar.q)[perm] + rng.normal((n, d), sigma)
    width = len(str(n - 1))
    return data_io.SyntheticInstance(
        x=data_io.EmbeddingSet(tuple(f"s{i:0{width}d}" for i in range(n)), x),
        y=data_io.EmbeddingSet(tuple(f"t{i:0{width}d}" for i in range(n)), y),
        true_rotation=qstar,
        true_permutation=assignment.Permutation(perm),
        noise_sigma=sigma,
    )


class CliWorkload:
    """Seeded .vec files and a gold lexicon, run through `wproc` subcommands."""

    # Every LEX_STRIDE-th target row and its true source form the lexicon.
    LEX_STRIDE = 4

    def __init__(self, scale: str, workdir: str):
        self.p = self.SIZES[scale]
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, seed: int):
        p, data_io = self.p, lib("data_io")
        self.seed = seed
        inst = anisotropic_instance(p["n"], p["d"], seed, p["decay"], p["noise"],
                                    p["jitter"])
        data_io.save_vec(self.path("src.vec"), inst.x)
        data_io.save_vec(self.path("tgt.vec"), inst.y)
        self.gold = dict(inst.gold_pairs()[:: self.LEX_STRIDE])
        with open(self.path("gold.lex"), "w", encoding="utf-8") as fh:
            for a, b in self.gold.items():
                fh.write(f"{a} {b}\n")
        self.inst = inst
        self._prepared = None

    def prepared(self):
        """The instance in the CLI's preprocessed coordinates, for match_acc."""
        if self._prepared is None:
            data_io, pre = lib("data_io"), lib("preprocess")
            inst = self.inst
            self._prepared = data_io.SyntheticInstance(
                x=data_io.EmbeddingSet(inst.x.labels, pre.preprocess(inst.x.matrix)),
                y=data_io.EmbeddingSet(inst.y.labels, pre.preprocess(inst.y.matrix)),
                true_rotation=inst.true_rotation,
                true_permutation=inst.true_permutation,
                noise_sigma=inst.noise_sigma,
            )
        return self._prepared

    def cli(self, *argv) -> str:
        """`wproc <argv>` in-process; a non-zero exit raises with its output."""
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = lib("cli").main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        if code != 0:
            raise RuntimeError(f"wproc {argv[0]} exited {code}: {buf.getvalue().strip()}")
        return buf.getvalue()

    def pair(self):
        return self.path("src.vec"), self.path("tgt.vec")

    def check_refine(self, out: Outcome, epochs_csv: str, final_map: str):
        q = _orthogonal(final_map)
        with open(epochs_csv, encoding="utf-8", newline="") as fh:
            sizes = [int(row["dictionary_size"]) for row in csv.DictReader(fh)]
        require(len(sizes) == self.p["epochs"] and min(sizes) > 0,
                f"dictionary sizes {sizes}")
        out.counts["dict_sizes"] = sizes
        out.artifacts["final_map"] = _read(final_map)
        out.match_acc = lib("evaluation").matching_accuracy(self.prepared(), q, "nn")
        require(out.match_acc >= self.p["acc_floor"],
                f"match_acc {out.match_acc:.4f} below {self.p['acc_floor']}")

    def read_report(self, out: Outcome, path: str, name: str) -> float:
        """P@1 of an eval report; checks it covers the whole lexicon."""
        raw = _read(path)
        report = json.loads(raw)
        require(report["n_queries"] == len(self.gold) and report["oov_skipped"] == 0,
                f"eval covered {report['n_queries']} of {len(self.gold)} queries")
        out.artifacts[name] = raw
        return report["precision_at"]["1"]


class BliD300(CliWorkload):
    """init -> align -> refine -> eval, as a user runs the pipeline."""

    name = "bli-d300"
    SIZES = {
        "full": dict(n=2000, d=300, decay=0.5, noise=0.2, jitter=10, fw_size=400,
                     fw_iters=30, batch=150, steps=15, epochs=2,
                     acc_floor=0.99, p1_floor=0.99),
        "tiny": dict(n=400, d=30, decay=0.5, noise=0.1, jitter=10, fw_size=150,
                     fw_iters=10, batch=40, steps=6, epochs=1,
                     acc_floor=0.5, p1_floor=0.5),
    }

    def pipeline(self, ledger: Ledger, span=no_span) -> Outcome:
        p, (src, tgt), path = self.p, self.pair(), self.path
        out = Outcome()
        out.results["init"] = ledger.op("cli.init", lambda: self.cli(
            "init", src, tgt, "--out", path("q0.map"),
            "--fw-size", p["fw_size"], "--fw-iters", p["fw_iters"]), span)
        ledger.op("cli.align", lambda: self.cli(
            "align", src, tgt, "--init", path("q0.map"), "--out", path("q.map"),
            "--batch-size", p["batch"], "--iters", p["steps"], "--seed", self.seed), span)
        ledger.op("cli.refine", lambda: self.cli(
            "refine", src, tgt, "--map", path("q.map"), "--out", path("qr.map"),
            "--epochs", p["epochs"]), span)
        ledger.op("cli.eval", lambda: self.cli(
            "eval", src, tgt, "--map", path("qr.map"), "--lexicon", path("gold.lex"),
            "--out", path("report.json")), span)
        return out

    def check(self, ledger: Ledger, out: Outcome):
        p, path = self.p, self.path

        def init():
            q0 = _orthogonal(path("q0.map"))
            iters = int(out.results["init"].split("fw iterations ")[1].split(",")[0])
            require(1 <= iters <= p["fw_iters"], f"fw iterations {iters}")
            out.counts["fw_iters"] = iters
            out.artifacts["q0_map"] = _read(path("q0.map"))
            out.q0_acc = lib("evaluation").matching_accuracy(self.prepared(), q0, "nn")

        def align():
            _orthogonal(path("q.map"))
            out.artifacts["align_map"] = _read(path("q.map"))

        def evaluate():
            out.p_at_1 = self.read_report(out, path("report.json"), "report")
            require(out.p_at_1 >= p["p1_floor"],
                    f"p_at_1 {out.p_at_1:.4f} below {p['p1_floor']}")

        ledger.check("cli.init", init)
        ledger.check("cli.align", align)
        ledger.check("cli.refine", lambda: self.check_refine(
            out, path("qr.map.epochs.csv"), path("qr.map")))
        ledger.check("cli.eval", evaluate)


class RetrieveD300(CliWorkload):
    """refine -> translate (CSLS top-10 of every row) -> eval --retrieval isf,
    from a perturbed true map written at setup.  No init, no align."""

    name = "retrieve-d300"
    TOPK = 10
    SIZES = {
        "full": dict(n=2000, d=300, decay=0.5, noise=0.2, jitter=10, start_noise=0.2,
                     epochs=2, acc_floor=0.99, p1_floor=0.99, isf_p1_floor=0.99),
        "tiny": dict(n=400, d=30, decay=0.5, noise=0.1, jitter=10, start_noise=0.2,
                     epochs=1, acc_floor=0.5, p1_floor=0.5, isf_p1_floor=0.5),
    }

    def setup(self, seed: int):
        super().setup(seed)
        qstar = self.inst.true_rotation
        kick = lib("rng").PortableRng(seed).spawn(1).normal((qstar.dim, qstar.dim))
        start = lib("linalg").project_orthogonal(qstar.q + self.p["start_noise"] * kick)
        lib("data_io").save_map(self.path("start.map"), start)

    def pipeline(self, ledger: Ledger, span=no_span) -> Outcome:
        p, (src, tgt), path = self.p, self.pair(), self.path
        ledger.op("cli.refine", lambda: self.cli(
            "refine", src, tgt, "--map", path("start.map"), "--out", path("qr.map"),
            "--epochs", p["epochs"]), span)
        ledger.op("cli.translate", lambda: self.cli(
            "translate", src, tgt, "--map", path("qr.map"), "--out", path("tr.tsv"),
            "--topk", self.TOPK), span)
        ledger.op("cli.eval", lambda: self.cli(
            "eval", src, tgt, "--map", path("qr.map"), "--lexicon", path("gold.lex"),
            "--out", path("report.json"), "--retrieval", "isf"), span)
        return Outcome()

    def check(self, ledger: Ledger, out: Outcome):
        p, path = self.p, self.path

        def translate():
            raw = _read(path("tr.tsv"))
            rows = [line.split("\t") for line in raw.decode("utf-8").splitlines()]
            require(len(rows) == p["n"] * self.TOPK, f"{len(rows)} translation rows")
            hits = sum(1 for word, rank, cand, _ in rows
                       if rank == "1" and self.gold.get(word) == cand)
            out.p_at_1 = hits / len(self.gold)
            out.artifacts["translations"] = raw
            require(out.p_at_1 >= p["p1_floor"],
                    f"p_at_1 {out.p_at_1:.4f} below {p['p1_floor']}")

        def evaluate():
            isf = self.read_report(out, path("report.json"), "report")
            out.counts["isf_p_at_1"] = isf
            require(isf >= p["isf_p1_floor"], f"isf P@1 {isf:.4f} below {p['isf_p1_floor']}")

        ledger.check("cli.refine", lambda: self.check_refine(
            out, path("qr.map.epochs.csv"), path("qr.map")))
        ledger.check("cli.translate", translate)
        ledger.check("cli.eval", evaluate)


WORKLOADS = {w.name: w for w in (BliD300, RetrieveD300)}

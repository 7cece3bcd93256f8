"""Spans around the library calls of a traced benchmark run.

The library is not instrumented itself.  Instead, ``installed`` replaces
each function by a wrapper under the name its callers resolve: the
importing module for names bound by an eager ``from .x import y`` (for
example ``wproc.aligner.max_trace_matching``), the defining module for
names that ``wproc.cli`` imports lazily inside a subcommand.  Spans are
held in memory with their parent ids; ``layer_metrics`` turns the spans
of one pipeline into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from importlib import import_module
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = perf_counter()
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded pipeline."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        sp = Span(len(self.spans), self._open[-1] if self._open else None, name)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()


def _note_plan(sp, args, kwargs, plan):
    sp.attrs.update(iters=plan.iterations, converged=plan.converged,
                    marginal_error=plan.marginal_error)


def _note_fw(sp, args, kwargs, out):
    plan, _ = out
    sp.attrs.update(iters=plan.iterations, converged=plan.converged)


def _note_step(sp, args, kwargs, state):
    sp.attrs["loss"] = state.loss_history[-1][1]


def _note_dictionary(sp, args, kwargs, dictionary):
    sp.attrs["size"] = len(dictionary)


def _note_rows(sp, args, kwargs, emb):
    sp.attrs["rows"] = emb.size


def _retrieval_cfg(args, kwargs):
    """The RetrievalConfig of a retrieve(queries, targets, cfg, topk) call."""
    return args[2] if len(args) > 2 else kwargs.get("cfg")


def _retrieve_name(args, kwargs):
    cfg = _retrieval_cfg(args, kwargs)
    return "retrieval.retrieve." + (cfg.kind if cfg is not None else "csls")


def _note_retrieve(sp, args, kwargs, table):
    cfg = _retrieval_cfg(args, kwargs)
    nq, d = np.shape(args[0])
    nt = np.shape(args[1])[0]
    if cfg is not None:
        nt = min(nt, cfg.candidate_cap)
    # nn scores in one pass over the queries; csls and isf need a
    # second pass for their per-target statistics.
    passes = 1 if sp.name.endswith(".nn") else 2
    top1 = np.bincount(table.indices[:, 0], minlength=nt)
    sp.attrs.update(queries=nq, targets=nt, flop=2.0 * nq * nt * d * passes,
                    unreached=int((top1 == 0).sum()), max_in_degree=int(top1.max()))


# (module, attribute path, span name, note).  The span name may be a
# function of the call's arguments; the note runs after the span closes
# and stores attributes of the result on it.
PATCHES = (
    ("wproc.aligner", "align", "aligner.align", None),
    ("wproc.aligner", "align_step", "aligner.align_step", _note_step),
    ("wproc.aligner", "max_trace_matching", "assignment.lap.align", None),
    ("wproc.aligner", "sinkhorn_plan", "sinkhorn.plan", _note_plan),
    ("wproc.aligner", "project_orthogonal", "linalg.project_orthogonal", None),
    ("wproc.rng", "PortableRng.sample_without_replacement", "rng.sample", None),
    ("wproc.qap_init", "build_grams", "qap_init.build_grams", None),
    ("wproc.qap_init", "fw_solve", "qap_init.fw_solve", _note_fw),
    ("wproc.qap_init", "extract_q0", "qap_init.extract_q0", None),
    ("wproc.qap_init", "max_trace_matching", "assignment.lap.fw", None),
    ("wproc.qap_init", "fit_orthogonal", "procrustes.fit_orthogonal", None),
    ("wproc.refine", "fit_orthogonal", "procrustes.fit_orthogonal", None),
    ("wproc.procrustes", "fit_orthogonal", "procrustes.fit_orthogonal", None),
    ("wproc.refine", "refine", "refine.refine", None),
    ("wproc.refine", "mutual_nn_dictionary", "refine.mutual_nn", _note_dictionary),
    ("wproc.retrieval", "retrieve", _retrieve_name, _note_retrieve),
    ("wproc.evaluation", "retrieve", _retrieve_name, _note_retrieve),
    ("wproc.evaluation", "evaluate_bli", "evaluation.evaluate_bli", None),
    ("wproc.data_io", "load_vec", "data_io.load_vec", _note_rows),
    ("wproc.data_io", "save_vec", "data_io.save_vec", None),
    ("wproc.preprocess", "preprocess", "preprocess", None),
)


def _wrap(tracer, fn, name, note):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label) as sp:
            out = fn(*args, **kwargs)
        if note is not None:
            note(sp, args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every name in PATCHES for the duration of the block."""
    undo = []
    try:
        for module, path, name, note in PATCHES:
            *owner_path, attr = path.split(".")
            owner = import_module(module)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, original, name, note))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Per span name: total duration minus the time its direct children cover."""
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0.0) + sp.duration
    out = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child.get(sp.id, 0.0)
    return out


def layer_table(spans) -> dict:
    """Per span name: (calls, total seconds, self seconds)."""
    selfs = self_times(spans)
    table = {}
    for sp in spans:
        calls, total, _ = table.get(sp.name, (0, 0.0, 0.0))
        table[sp.name] = (calls + 1, total + sp.duration, selfs[sp.name])
    return table


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metric values of one traced pipeline.

    A layer the workload never enters reads 0; the benchmark's
    per-layer list is the same for every workload.
    """
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)
    selfs = self_times(spans)

    def total(name):
        return sum(sp.duration for sp in by.get(name, ()))

    def calls(name):
        return len(by.get(name, ()))

    def p50_ms(name):
        durs = [sp.duration for sp in by.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    m = {}
    loads = by.get("data_io.load_vec", [])
    m["data_io.load_vec.s"] = total("data_io.load_vec")
    m["data_io.load_vec.calls"] = calls("data_io.load_vec")
    m["data_io.load_vec.rows_per_s"] = _ratio(
        sum(sp.attrs["rows"] for sp in loads), m["data_io.load_vec.s"])
    m["preprocess.s"] = total("preprocess")
    m["preprocess.calls"] = calls("preprocess")

    fw = by.get("qap_init.fw_solve", [])
    fw_iters = sum(sp.attrs["iters"] for sp in fw)
    m["qap_init.build_grams.s"] = total("qap_init.build_grams")
    m["qap_init.fw_solve.s"] = total("qap_init.fw_solve")
    m["qap_init.fw_iters"] = fw_iters
    m["qap_init.fw_s_per_iter"] = _ratio(m["qap_init.fw_solve.s"], fw_iters)
    m["qap_init.fw_converged"] = sum(1 for sp in fw if sp.attrs["converged"])

    for use in ("fw", "align"):
        name = f"assignment.lap.{use}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.ms_p50"] = p50_ms(name)

    plans = by.get("sinkhorn.plan", [])
    m["sinkhorn.plan.calls"] = len(plans)
    m["sinkhorn.plan.s"] = total("sinkhorn.plan")
    m["sinkhorn.plan.ms_p50"] = p50_ms("sinkhorn.plan")
    m["sinkhorn.iters_mean"] = _ratio(sum(sp.attrs["iters"] for sp in plans), len(plans))
    m["sinkhorn.nonconverged"] = sum(1 for sp in plans if not sp.attrs["converged"])
    m["sinkhorn.marginal_err_max"] = max(
        (sp.attrs["marginal_error"] for sp in plans), default=0.0)

    m["rng.sample.calls"] = calls("rng.sample")
    m["rng.sample.s"] = total("rng.sample")
    m["linalg.project_orthogonal.calls"] = calls("linalg.project_orthogonal")
    m["linalg.project_orthogonal.s"] = total("linalg.project_orthogonal")
    m["procrustes.fit_orthogonal.calls"] = calls("procrustes.fit_orthogonal")
    m["procrustes.fit_orthogonal.s"] = total("procrustes.fit_orthogonal")

    steps = by.get("aligner.align_step", [])
    m["aligner.align.s"] = total("aligner.align")
    m["aligner.steps"] = len(steps)
    m["aligner.steps_per_s"] = _ratio(len(steps), m["aligner.align.s"])
    m["aligner.final_loss"] = steps[-1].attrs["loss"] if steps else 0.0
    # align_step is a span of its own, so the aligner's own work is the
    # self time of both spans: what LAP, Sinkhorn, rng and projection
    # spans do not cover.
    m["aligner.self_s"] = selfs.get("aligner.align", 0.0) + selfs.get(
        "aligner.align_step", 0.0)

    searches = [sp for name, sps in by.items()
                if name.startswith("retrieval.retrieve.") for sp in sps]
    search_s = sum(sp.duration for sp in searches)
    m["retrieval.retrieve.csls.s"] = total("retrieval.retrieve.csls")
    m["retrieval.retrieve.isf.s"] = total("retrieval.retrieve.isf")
    m["retrieval.queries_per_s"] = _ratio(
        sum(sp.attrs["queries"] for sp in searches), search_s)
    m["retrieval.score_gflop_per_s"] = _ratio(
        sum(sp.attrs["flop"] for sp in searches), search_s) / 1e9
    # Hubness is read off the widest search of the pipeline.
    widest = max(searches, key=lambda sp: sp.attrs["queries"], default=None)
    m["retrieval.hub_unreached_share"] = (
        widest.attrs["unreached"] / widest.attrs["targets"] if widest else 0.0)
    m["retrieval.hub_max_in_degree"] = widest.attrs["max_in_degree"] if widest else 0

    dicts = by.get("refine.mutual_nn", [])
    m["refine.refine.s"] = total("refine.refine")
    m["refine.s_per_epoch"] = _ratio(m["refine.refine.s"], len(dicts))
    m["refine.mutual_nn.calls"] = len(dicts)
    m["refine.mutual_nn.s"] = total("refine.mutual_nn")
    m["refine.dict_size_last"] = dicts[-1].attrs["size"] if dicts else 0

    m["evaluation.evaluate_bli.s"] = total("evaluation.evaluate_bli")

    for sub in ("init", "align", "refine", "eval", "translate"):
        m[f"cli.{sub}.s"] = total(f"cli.{sub}")
    # Subcommand time outside library spans: argument parsing, manifests,
    # map and TSV writes.
    m["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
    return m


def exact_counts(spans) -> dict:
    """Call counts and sizes that repeat exactly for one seed."""
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)
    return {
        "fw_iters": sum(sp.attrs["iters"] for sp in by.get("qap_init.fw_solve", [])),
        "lap_fw_calls": len(by.get("assignment.lap.fw", [])),
        "lap_align_calls": len(by.get("assignment.lap.align", [])),
        "sinkhorn_calls": len(by.get("sinkhorn.plan", [])),
        "sinkhorn_nonconverged": sum(
            1 for sp in by.get("sinkhorn.plan", []) if not sp.attrs["converged"]),
        "dict_sizes": [sp.attrs["size"] for sp in by.get("refine.mutual_nn", [])],
        "load_vec_calls": len(by.get("data_io.load_vec", [])),
    }

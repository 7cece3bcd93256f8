"""Alignment of two embedding sets with unknown correspondence.

The pipeline estimates an orthogonal map and a point matching jointly:
a convex graph-matching relaxation supplies the initial map, a
stochastic mini-batch optimizer over transport plans sharpens it, and
mutual-nearest-neighbor refinement finishes against hubness-corrected
similarity scores.

Submodules stay importable on their own; the names re-exported here
cover the common library surface.  Attribute access is lazy so that
`import wproc` does not pull in scipy before a CLI thread cap lands.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    "InvalidArgumentError": "errors",
    "InvalidInputError": "errors",
    "ConfigError": "errors",
    "ParseError": "errors",
    "IntegrityError": "errors",
    "EmptyResultError": "errors",
    "DegenerateFitError": "errors",
    "DegenerateProjectionError": "errors",
    "OrthogonalMap": "linalg",
    "project_orthogonal": "linalg",
    "pca_project": "linalg",
    "PortableRng": "rng",
    "Permutation": "assignment",
    "solve_lap": "assignment",
    "max_trace_matching": "assignment",
    "fit_orthogonal": "procrustes",
    "SinkhornConfig": "sinkhorn",
    "TransportPlan": "sinkhorn",
    "sinkhorn_plan": "sinkhorn",
    "GramPair": "qap_init",
    "FwConfig": "qap_init",
    "build_grams": "qap_init",
    "fw_solve": "qap_init",
    "extract_q0": "qap_init",
    "AlignmentConfig": "aligner",
    "AlignmentState": "aligner",
    "align": "aligner",
    "align_step": "aligner",
    "RetrievalConfig": "retrieval",
    "NeighborTable": "retrieval",
    "retrieve": "retrieval",
    "SeedDictionary": "refine",
    "RefineResult": "refine",
    "mutual_nn_dictionary": "refine",
    "refine": "refine",
    "PreprocessSpec": "preprocess",
    "preprocess": "preprocess",
    "EmbeddingSet": "data_io",
    "Lexicon": "data_io",
    "SyntheticInstance": "data_io",
    "load_vec": "data_io",
    "save_vec": "data_io",
    "load_map": "data_io",
    "save_map": "data_io",
    "load_lexicon": "data_io",
    "synth_generate": "data_io",
    "EvalReport": "evaluation",
    "evaluate_bli": "evaluation",
    "matching_accuracy": "evaluation",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'wproc' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__

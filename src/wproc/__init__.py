"""Alignment of two embedding sets with unknown correspondence.

The pipeline estimates an orthogonal map and a point matching jointly:
a convex graph-matching relaxation supplies the initial map, a
stochastic mini-batch optimizer over transport plans sharpens it, and
mutual-nearest-neighbor refinement finishes against hubness-corrected
similarity scores.

Import what you need from its submodule, for example
`from wproc.aligner import align` or `from wproc.refine import refine`;
the package itself holds only `__version__`, so `import wproc` loads no
numeric library before a CLI thread cap lands.
"""

__version__ = "0.1.0"

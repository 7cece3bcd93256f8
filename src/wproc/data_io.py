"""File formats and synthetic instance generation.

Embeddings travel in the plain text vector format: a header line
``<count> <dim>`` followed by one ``<word> <v1> ... <vdim>`` line per row,
single ASCII spaces, UTF-8, optionally gzip-compressed (detected by the
magic bytes).  Loaders are strict: malformed input is rejected with the
offending line number, never repaired, because silently dropped or
deduplicated rows shift the frequency order every downstream stage
depends on.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass

import numpy as np

from .assignment import Permutation
from .errors import IntegrityError, InvalidArgumentError, InvalidInputError, ParseError
from .linalg import OrthogonalMap, as_matrix, project_orthogonal
from .rng import PortableRng

__all__ = [
    "EmbeddingSet",
    "Lexicon",
    "SyntheticInstance",
    "load_vec",
    "save_vec",
    "save_map",
    "load_map",
    "load_lexicon",
    "synth_generate",
]


@dataclass(frozen=True)
class EmbeddingSet:
    """Labeled vectors in frequency order (most frequent first)."""

    labels: tuple
    matrix: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        m = as_matrix(self.matrix, "embedding matrix")
        if len(labels) != m.shape[0]:
            raise InvalidInputError(
                f"{len(labels)} labels for {m.shape[0]} matrix rows"
            )
        if len(set(labels)) != len(labels):
            raise InvalidInputError("duplicate labels in embedding set")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def index(self) -> dict:
        """Label to row position."""
        return {w: i for i, w in enumerate(self.labels)}


@dataclass(frozen=True)
class Lexicon:
    """Bilingual word pairs; one source may map to several targets."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        if not pairs:
            raise InvalidInputError("lexicon is empty")
        if any(not a or not b for a, b in pairs):
            raise InvalidInputError("lexicon contains an empty word")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SyntheticInstance:
    """Two point sets with known rotation and correspondence.

    By construction y.matrix[i] = x.matrix[perm[i]] @ Q* + noise, where
    perm is true_permutation.mapping: target row i originates from
    source row perm[i].
    """

    x: EmbeddingSet
    y: EmbeddingSet
    true_rotation: OrthogonalMap
    true_permutation: Permutation
    noise_sigma: float

    def gold_pairs(self) -> tuple:
        """(source label, target label) ground-truth pairs."""
        perm = self.true_permutation.mapping
        return tuple(
            (self.x.labels[perm[i]], self.y.labels[i]) for i in range(len(perm))
        )


def _open_text(path):
    """Open possibly-gzipped UTF-8 text for reading."""
    raw = open(path, "rb")
    head = raw.read(2)
    raw.seek(0)
    if head == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8")
    return io.TextIOWrapper(raw, encoding="utf-8")


def load_vec(path, max_rows: int | None = None) -> EmbeddingSet:
    """Read an embedding file, keeping the first min(n, max_rows) rows.

    Raises ParseError (with the 1-based line number) on a malformed
    header, a wrong per-line token count, an unparseable float, a
    duplicate word, or a truncated file.
    """
    if max_rows is not None and max_rows < 1:
        raise InvalidArgumentError("max_rows must be at least 1")
    with _open_text(path) as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file", line=1)
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"header must be '<n> <d>', got {header.strip()!r}", line=1)
        try:
            n, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer header {header.strip()!r}", line=1) from None
        if n < 1 or d < 1:
            raise ParseError(f"header counts must be positive, got {n} {d}", line=1)
        want = n if max_rows is None else min(n, max_rows)
        labels = []
        seen = set()
        rows = np.empty((want, d))
        for k in range(want):
            line_no = k + 2
            line = fh.readline()
            if not line:
                raise ParseError(
                    f"file ends after {k} data rows, header declared {n}", line=line_no
                )
            line = line.rstrip("\n").rstrip("\r")
            tokens = line.split(" ")
            if len(tokens) != d + 1:
                raise ParseError(
                    f"expected a word and {d} values, got {len(tokens)} tokens",
                    line=line_no,
                )
            word = tokens[0]
            if not word:
                raise ParseError("empty word", line=line_no)
            if word in seen:
                raise ParseError(f"duplicate word {word!r}", line=line_no)
            seen.add(word)
            labels.append(word)
            try:
                rows[k] = [float(t) for t in tokens[1:]]
            except ValueError:
                raise ParseError("unparseable numeric value", line=line_no) from None
        if max_rows is None or want == n:
            extra = fh.readline()
            if extra.strip():
                raise ParseError(
                    f"more data rows than the header's {n}", line=want + 2
                )
    return EmbeddingSet(labels=tuple(labels), matrix=rows)


def save_vec(path, e: EmbeddingSet):
    """Write an embedding file (gzip when the path ends in .gz)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write(f"{e.size} {e.dim}\n")
        for word, row in zip(e.labels, e.matrix):
            fh.write(word + " " + " ".join("%.8g" % v for v in row) + "\n")


def save_map(path, q: OrthogonalMap):
    """Write a map as a dimension line then d rows of d values.

    Values are written with 17 significant digits so the round trip is
    exact for float64.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{q.dim}\n")
        for row in q.q:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


# A stored map passes its load check when ||q'q - I||_F is within this.
_MAP_LOAD_ATOL = 1e-6


def load_map(path) -> OrthogonalMap:
    """Read a stored map, checking orthogonality (1e-6) on load."""
    with _open_text(path) as fh:
        header = fh.readline()
        try:
            d = int(header.split()[0])
        except (ValueError, IndexError):
            raise ParseError(f"bad map header {header.strip()!r}", line=1) from None
        m = np.empty((d, d))
        for i in range(d):
            line = fh.readline()
            if not line:
                raise ParseError(f"map ends after {i} of {d} rows", line=i + 2)
            vals = line.split()
            if len(vals) != d:
                raise ParseError(f"expected {d} values, got {len(vals)}", line=i + 2)
            try:
                m[i] = [float(v) for v in vals]
            except ValueError:
                raise ParseError("unparseable numeric value", line=i + 2) from None
    err = float(np.linalg.norm(m.T @ m - np.eye(d)))
    if err > _MAP_LOAD_ATOL:
        raise IntegrityError(
            f"stored map is not orthogonal: ||q'q - I||_F = {err:.3e}"
        )
    return OrthogonalMap(q=m, _ATOL=_MAP_LOAD_ATOL)


def load_lexicon(path) -> Lexicon:
    """Read a two-column word-pair file (whitespace separated)."""
    pairs = []
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise ParseError(
                    f"expected 2 words, got {len(tokens)}", line=line_no
                )
            pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise ParseError("lexicon file has no pairs", line=1)
    return Lexicon(pairs=tuple(pairs))


def synth_generate(n: int, d: int, noise_sigma: float, seed: int) -> SyntheticInstance:
    """Random instance with known rotation and correspondence.

    x rows are i.i.d. standard gaussian; the rotation is the orthogonal
    projection of a gaussian matrix; the correspondence is a uniform
    random permutation; y = permuted(x @ Q*) plus gaussian noise of the
    given sigma.  Deterministic in the seed.
    """
    if d < 2 or n < d:
        raise InvalidArgumentError(f"need n >= d >= 2, got n={n} d={d}")
    if noise_sigma < 0:
        raise InvalidArgumentError("noise_sigma must be nonnegative")
    rng = PortableRng(seed)
    x = rng.normal((n, d))
    qstar = project_orthogonal(rng.normal((d, d)))
    perm = Permutation(rng.permutation(n))
    y = (x @ qstar.q)[perm.mapping]
    if noise_sigma > 0:
        y = y + rng.normal((n, d), noise_sigma)
    width = max(4, len(str(n - 1)))
    xs = EmbeddingSet(
        labels=tuple(f"s{i:0{width}d}" for i in range(n)), matrix=x
    )
    ys = EmbeddingSet(
        labels=tuple(f"t{i:0{width}d}" for i in range(n)), matrix=y
    )
    return SyntheticInstance(
        x=xs, y=ys, true_rotation=qstar, true_permutation=perm, noise_sigma=noise_sigma
    )

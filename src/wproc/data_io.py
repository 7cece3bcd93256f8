"""File formats and synthetic instance generation.

Embeddings travel in the plain text vector format: a header line
``<count> <dim>`` followed by one ``<word> <v1> ... <vdim>`` line per row,
single ASCII spaces, UTF-8, optionally gzip-compressed (detected by the
magic bytes).  Loaders are strict: malformed input is rejected with the
offending line number, never repaired, because silently dropped or
deduplicated rows shift the frequency order every downstream stage
depends on.  ``load_vec`` keeps what it parsed in a file beside its
input, ``<path>.wproc-cache.npz``, keyed by a sha256 of the bytes it
read, so a later load of the same bytes skips the text parse.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import gzip
import hashlib
import io
import itertools
import os
import zlib
from dataclasses import dataclass
from typing import NamedTuple

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


def _open_binary(path):
    """Open a file for reading its bytes, decompressed when it is gzip."""
    raw = open(path, "rb")
    head = raw.read(2)
    raw.seek(0)
    if head == b"\x1f\x8b":
        # A GzipFile does not close a file object it was handed.
        raw.close()
        return gzip.GzipFile(path, "rb")
    return raw


def _open_text(path):
    """Open possibly-gzipped UTF-8 text for reading."""
    return io.TextIOWrapper(_open_binary(path), encoding="utf-8")


# Data lines are read and parsed this many at a time, so memory stays
# bounded by one chunk whatever the file size.  Larger chunks parse no
# faster and leave more freed heap behind: 1024-row chunks of d=300 lines
# raised the peak RSS of a whole CLI pipeline by about 7 MB.
_CHUNK_ROWS = 128

# Characters that send a chunk to the line loop.  The text reader already
# turns "\r\n" and "\r" into "\n"; a stray "\r" is still refused here.
# np.loadtxt strips \x1c-\x1f around a number (str.isspace counts them as
# whitespace) where float() refuses them.
_LOOP_ONLY = "\r\x1c\x1d\x1e\x1f"


def load_vec(path, max_rows: int | None = None) -> EmbeddingSet:
    """Read an embedding file, keeping the first min(n, max_rows) rows.

    Raises ParseError (with the 1-based line number) on a malformed
    header, a wrong per-line token count, an unparseable float, a
    duplicate word, or a truncated file.  Only the first max_rows data
    lines are read; the check for rows beyond the header's count reads
    one more line, and only when the whole file is wanted.

    A successful parse is stored beside the file in
    ``<path>.wproc-cache.npz`` (when that directory is writable), keyed
    by a sha256 of the bytes the parse read (_vec_key); a later load of
    the same bytes returns the stored rows without parsing.  The parser
    stays the only definition of a valid file: a cache file holds only
    what it returned, and a file it refuses is never cached.
    """
    if max_rows is not None and max_rows < 1:
        raise InvalidArgumentError("max_rows must be at least 1")
    cache = os.fsdecode(path) + _CACHE_SUFFIX
    key = _vec_key(path, max_rows)
    if key is not None:
        hit = _read_cache(cache, key)
        if hit is not None:
            return hit
    emb = _parse_vec(path, max_rows)
    if key is not None:
        _write_cache(path, cache, key, emb)
    return emb


def _header_counts(header):
    """n and d of a .vec header line; ParseError unless two positive integers."""
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
    return n, d


# The cache file of a .vec file is its path plus this suffix.
_CACHE_SUFFIX = ".wproc-cache.npz"
# Bytes read at a time by the key pass, so memory stays bounded whatever
# the file size.  It is far more than the 8 KB the text reader decodes
# ahead of the line it returns.
_HASH_BLOCK = 1 << 20


class _VecKey(NamedTuple):
    """What a load's cache entry must match, and the file it was taken from."""

    digest: bytes
    want: int
    d: int
    stamp: tuple  # _stamp of the file before the digest was taken


def _stamp(st):
    return st.st_ino, st.st_size, st.st_mtime_ns


@functools.cache
def _cache_tag():
    """The first bytes hashed into every key: a sha256 of this module.

    Any change to the parser or to the cache layout changes the source,
    so older cache files miss without a version tag kept by hand.
    """
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


def _vec_key(path, max_rows):
    """The _VecKey of a load, or None when the cache must be skipped.

    The digest is a sha256 of _cache_tag(), want = min(n, max_rows),
    and the decompressed bytes the parser can read: the header line,
    then want lines ending in b"\\n", then the rest of the file when
    want == n.  A "\\r" also ends a text line, so a binary line holds at
    least one text line and these bytes cover every line the parser
    reads.  The content is hashed rather than the size and mtime: a
    rewrite of the same size within one mtime tick would serve the old
    rows.

    None when the header is not two positive integers or reading
    raises; the parser then raises its own error.  Every byte read is
    also decoded, including one block past the hashed lines that covers
    the text reader's read-ahead, so a file whose parse would fail on a
    decode or gzip error never reaches the cache.
    """
    try:
        with _open_binary(path) as fh:
            stamp = _stamp(os.fstat(fh.fileno()))
            decode = codecs.getincrementaldecoder("utf-8")().decode
            header = fh.readline()
            n, d = _header_counts(decode(header))
            want = n if max_rows is None else min(n, max_rows)
            h = hashlib.sha256(_cache_tag() + b"%d\n" % want + header)
            left = want  # lines still to hash when want < n
            while block := fh.read(_HASH_BLOCK):
                decode(block)
                lines = block.count(b"\n")
                if want < n and lines >= left:
                    end = -1
                    for _ in range(left):
                        end = block.index(b"\n", end + 1)
                    h.update(block[: end + 1])
                    ahead = fh.read(_HASH_BLOCK)
                    decode(ahead, len(ahead) < _HASH_BLOCK)
                    break
                h.update(block)
                left -= lines
            else:
                decode(b"", True)
    except (OSError, EOFError, ValueError, zlib.error, ParseError):
        return None
    return _VecKey(h.digest(), want, d, stamp)


def _read_cache(cache, key):
    """The EmbeddingSet stored in cache under key, or None: a miss.

    A file owned by another user is a miss: anyone who can read the
    .vec file can compute its key, so in a shared directory such as
    /tmp another user could plant a file under it.  The open does not
    block, so a FIFO planted there cannot stall the load.  The cache is
    best effort and a read never raises: a missing, truncated or
    corrupt file, another key, or arrays of the wrong dtype or shape
    are a miss.  The set is rebuilt, so its own checks run again.
    """
    try:
        with open(os.open(cache, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            if os.fstat(fh.fileno()).st_uid != os.getuid():
                return None
            with np.load(fh, allow_pickle=False) as z:
                if z["key"].tobytes() != key.digest:
                    return None
                labels, matrix = z["labels"], z["matrix"]
        if labels.dtype != np.uint8 or matrix.dtype != np.float64 \
                or matrix.shape != (key.want, key.d):
            return None
        # Words never hold a newline: the text reader ends a line there.
        words = labels.tobytes().decode("utf-8").split("\n")
        return EmbeddingSet(labels=tuple(words), matrix=matrix)
    except Exception:
        return None


def _write_cache(path, cache, key, emb):
    """Store emb, parsed from path, in cache under key, replacing it atomically.

    Skipped when path changed since its key was taken, as a rewrite
    during the parse can leave rows the digest does not describe.  An
    OSError (a read-only directory, a full disk) skips the write and
    removes the temporary file.
    """
    tmp = f"{cache}.{os.urandom(6).hex()}.tmp"
    try:
        if _stamp(os.stat(path)) != key.stamp:
            return
        # The mode goes through the umask, as for any file the program
        # writes; mkstemp would make it 0600.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "wb") as fh:
            np.savez(fh, key=np.frombuffer(key.digest, dtype=np.uint8),
                     labels=np.frombuffer("\n".join(emb.labels).encode("utf-8"),
                                          dtype=np.uint8),
                     matrix=emb.matrix)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_vec(path, max_rows):
    """The text parse of load_vec.

    Data lines are parsed in chunks by np.loadtxt.  A chunk that fails
    any of its checks is parsed again by _parse_lines, the strict line
    loop that defines a valid file: it raises the error or accepts the
    input (``1_0``, non-ASCII digits) exactly as it would alone.
    """
    with _open_text(path) as fh:
        n, d = _header_counts(fh.readline())
        want = n if max_rows is None else min(n, max_rows)
        labels = []
        seen = set()
        rows = np.empty((want, d))
        lo = 0
        while lo < want:
            size = min(_CHUNK_ROWS, want - lo)
            lines = list(itertools.islice(fh, size))
            hi = lo + len(lines)
            words = _parse_chunk(lines, d, seen, rows[lo:hi])
            if words is None:
                words = _parse_lines(lines, d, lo, seen, rows[lo:hi])
            labels.extend(words)
            if len(lines) < size:
                raise ParseError(
                    f"file ends after {hi} data rows, header declared {n}", line=hi + 2
                )
            lo = hi
        if want == n:
            extra = fh.readline()
            if extra.strip():
                raise ParseError(
                    f"more data rows than the header's {n}", line=want + 2
                )
    return EmbeddingSet(labels=tuple(labels), matrix=rows)


def _parse_chunk(lines, d, seen, out):
    """Bulk-parse data lines into out and their words into seen.

    Returns the words, or None, touching neither out nor seen, when the
    chunk needs the line loop.

    Accepts only what _parse_lines accepts, with the same values: loadtxt
    returns a row for every line and rejects a line with fewer than d
    spaces, so d spaces per line on average means exactly d on each.
    """
    if not lines:  # loadtxt warns on empty input
        return None
    text = "".join(lines)
    if any(c in text for c in _LOOP_ONLY) or text.count(" ") != len(lines) * d:
        return None
    try:
        words = [line[: line.index(" ")] for line in lines]
    except ValueError:
        return None
    if "" in words or len(set(words)) != len(words) or not seen.isdisjoint(words):
        return None
    try:
        values = np.loadtxt(lines, delimiter=" ", usecols=range(1, d + 1),
                            comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips empty lines, which the word check has already refused;
    # the row count is checked all the same.
    if values.shape != out.shape:
        return None
    out[...] = values
    seen.update(words)
    return words


def _parse_lines(lines, d, first, seen, out):
    """The strict definition of a valid data line, one line at a time.

    lines are data rows first + 1, first + 2, ... of the file; their
    values go into out and their words into seen.  Returns the words, or
    raises ParseError with the line's 1-based number in the file.
    """
    words = []
    for k, line in enumerate(lines):
        line_no = first + k + 2
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
        words.append(word)
        try:
            out[k] = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError("unparseable numeric value", line=line_no) from None
    return words


def save_vec(path, e: EmbeddingSet):
    """Write an embedding file (gzip when the path ends in .gz).

    Values are written as "%.8g", formatted a row at a time.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    fmt = " ".join(["%.8g"] * e.dim)
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write(f"{e.size} {e.dim}\n")
        for word, row in zip(e.labels, e.matrix):
            fh.write(word + " " + fmt % tuple(row.tolist()) + "\n")


def save_map(path, q: OrthogonalMap):
    """Write a map as a dimension line then d rows of d values.

    Values are written with 17 significant digits so the round trip is
    exact for float64, formatted a row at a time.
    """
    fmt = " ".join(["%.17g"] * q.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{q.dim}\n")
        for row in q.q:
            fh.write(fmt % tuple(row.tolist()))


# A stored map passes its load check when ||q'q - I||_F is within this.
_MAP_LOAD_ATOL = 1e-6


def load_map(path) -> OrthogonalMap:
    """Read a stored map, checking on load that it is finite and orthogonal (1e-6).

    The d rows are parsed by one np.loadtxt (_parse_map_bulk).  Rows it
    refuses are parsed again by _parse_map_lines, the strict line loop
    that defines a valid map file and raises its errors.  As in load_vec,
    the line after the declared rows must be blank or absent.
    """
    with _open_text(path) as fh:
        header = fh.readline()
        try:
            d = int(header.split()[0])
        except (ValueError, IndexError):
            raise ParseError(f"bad map header {header.strip()!r}", line=1) from None
        if d < 1:
            raise ParseError(f"map dimension must be positive, got {d}", line=1)
        m = np.empty((d, d))
        lines = list(itertools.islice(fh, d))
        extra = fh.readline()
    if not _parse_map_bulk(lines, m):
        _parse_map_lines(lines, m)
    if extra.strip():
        raise ParseError(f"more rows than the header's {d}", line=d + 2)
    bad = np.flatnonzero(~np.isfinite(m).all(axis=1))
    if bad.size:
        raise IntegrityError(
            f"line {int(bad[0]) + 2}: stored map has a non-finite entry"
        )
    try:
        return OrthogonalMap(q=m, _ATOL=_MAP_LOAD_ATOL)
    except InvalidInputError as exc:
        raise IntegrityError(f"stored map: {exc}") from None


def _parse_map_bulk(lines, out) -> bool:
    """Parse map rows into out with one np.loadtxt; False when it cannot.

    Accepts only what _parse_map_lines accepts, with the same values:
    loadtxt splits on the whitespace str.split splits on and parses
    tokens as float() does, but refuses some that float() takes
    (``1_0``, non-ASCII digits); it skips blank lines, which the row
    count catches.  out is left untouched on False.
    """
    # loadtxt warns on input with no data; a blank first row is an error
    # of the line loop.
    if not lines or not lines[0].strip():
        return False
    try:
        values = np.loadtxt(lines, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return False
    if values.shape != out.shape:
        return False
    out[...] = values
    return True


def _parse_map_lines(lines, out):
    """The strict definition of valid map rows, one line at a time.

    lines are rows 1, 2, ... of the map (lines 2, 3, ... of the file);
    out has one row per row the header declared.  Raises ParseError
    with the 1-based file line number.
    """
    d = out.shape[0]
    for i in range(d):
        if i == len(lines):
            raise ParseError(f"map ends after {i} of {d} rows", line=i + 2)
        vals = lines[i].split()
        if len(vals) != d:
            raise ParseError(f"expected {d} values, got {len(vals)}", line=i + 2)
        try:
            out[i] = [float(v) for v in vals]
        except ValueError:
            raise ParseError("unparseable numeric value", line=i + 2) from None


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

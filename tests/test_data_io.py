"""File formats: strict parsing, round trips, synthetic generator."""

import gzip
import hashlib
import io
import os
import stat
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wproc import data_io
from wproc.data_io import (
    EmbeddingSet,
    Lexicon,
    load_lexicon,
    load_map,
    load_vec,
    save_map,
    save_vec,
    synth_generate,
)
from wproc.errors import (
    IntegrityError,
    InvalidArgumentError,
    InvalidInputError,
    ParseError,
)
from wproc.linalg import OrthogonalMap


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_vec_basic(tmp_path):
    p = write(tmp_path / "a.vec", "2 3\nfoo 1 2 3\nbar 4.5 -1e-2 0\n")
    e = load_vec(p)
    assert e.labels == ("foo", "bar")
    assert e.size == 2 and e.dim == 3
    assert np.array_equal(e.matrix[0], [1.0, 2.0, 3.0])
    assert e.matrix[1, 1] == -0.01
    assert e.index() == {"foo": 0, "bar": 1}


def test_load_vec_max_rows(tmp_path):
    p = write(tmp_path / "a.vec", "3 2\na 1 2\nb 3 4\nc 5 6\n")
    e = load_vec(p, max_rows=2)
    assert e.labels == ("a", "b")
    with pytest.raises(InvalidArgumentError):
        load_vec(p, max_rows=0)


def test_load_vec_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("", "line 1"),
        ("2\n", "line 1"),
        ("x 3\n", "line 1"),
        ("0 3\n", "line 1"),
        ("2 2\na 1 2\n", "line 3"),  # truncated
        ("1 2\na 1 2 3\n", "line 2"),  # extra token
        ("1 2\na 1\n", "line 2"),  # missing value
        ("1 2\na 1 z\n", "line 2"),  # bad float
        ("2 2\na 1 2\na 3 4\n", "line 3"),  # duplicate word
        ("1 2\na 1 2\nb 3 4\n", "line 3"),  # more rows than header
        ("1 2\n 1 2\n", "line 2"),  # empty word
        # float() refuses \x1c-\x1f around a number, though str.isspace
        # counts them as whitespace.
        ("1 2\na \x1c1 2\n", "line 2"),
        ("2 2\na 1\x1f 2\nb 3 4\n", "line 2"),
        ("2 2\na 1 2 3 4\n\n", "line 2"),  # four spaces over two lines
        ("2 2\n\na 1 2\n", "line 2"),  # blank line
        ("2 2\r\na 1\r2\n", "line 2"),  # a lone \r ends a line too
    ]
    for body, frag in cases:
        p = write(tmp_path / "bad.vec", body)
        with pytest.raises(ParseError) as err:
            load_vec(p)
        assert frag in str(err.value), body


def test_load_vec_splits_on_single_spaces_only(tmp_path):
    # A word may not be empty, so a double space is a token error, not a
    # silently skipped gap.
    p = write(tmp_path / "a.vec", "1 2\nfoo  1 2\n")
    with pytest.raises(ParseError):
        load_vec(p)


def parse(path):
    """The rows of a whole file as the text parse reads them, cache aside."""
    return data_io._parse_vec(path, None).matrix


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


AWKWARD = [
    "1e5", "1E-5", "-2.5e+03", "0", "-0", "-0.0", "+0", "nan", "-nan", "NaN",
    "inf", "-inf", "+Infinity", "1e-400", "-1e-400", "1e500", "-1e500",
    "5e-324", "4.9406564584124654e-324", "2.225073858507201e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308",
    "0.12345678901234567", "-9.8765432109876543e-17", "12345678901234567",
    ".5", "5.", "007", "0.1000000000000000055511151231257827",
]
# An EmbeddingSet refuses non-finite values, so only these load as a file.
FINITE = [t for t in AWKWARD if np.isfinite(float(t))]


def rotated(tokens, d):
    """One row per token, d columns, so every token appears in every column."""
    m = len(tokens)
    return [[tokens[(i + j) % m] for j in range(d)] for i in range(m)]


@pytest.mark.parametrize("d", [1, 3, 29])
@pytest.mark.parametrize("last_newline", [True, False])
def test_finite_tokens_load_with_the_bits_float_gives_them(tmp_path, d, last_newline):
    table = rotated(FINITE, d)
    text = f"{len(table)} {d}\n" + "".join(
        f"w{i} " + " ".join(row) + "\n" for i, row in enumerate(table))
    p = write(tmp_path / "a.vec", text if last_newline else text[:-1])
    e = load_vec(p)
    assert e.labels == tuple(f"w{i}" for i in range(len(table)))
    assert_same_bits(e.matrix, np.array([[float(t) for t in row] for row in table]))


@pytest.mark.parametrize("last_newline", [True, False])
def test_the_line_loop_reads_every_token_as_float_does(last_newline):
    # nan and inf reach the matrix before EmbeddingSet refuses them.
    table = rotated(AWKWARD, len(AWKWARD))
    lines = [f"w{i} " + " ".join(row) + "\n" for i, row in enumerate(table)]
    if not last_newline:
        lines[-1] = lines[-1].rstrip("\n")
    out = np.empty((len(table), len(AWKWARD)))
    assert data_io._parse_lines(lines, len(AWKWARD), out) == [
        f"w{i}" for i in range(len(table))]
    assert_same_bits(out, np.array([[float(t) for t in row] for row in table]))


@pytest.mark.parametrize("name", ["a.vec", "a.vec.gz"])
def test_save_vec_output_loads_back_past_256_rows(tmp_path, name):
    n = 263
    e = EmbeddingSet(labels=tuple(f"r{i}" for i in range(n)),
                     matrix=np.random.default_rng(3).standard_normal((n, 4)) * 1e3)
    p = str(tmp_path / name)
    save_vec(p, e)
    back = load_vec(p)
    assert back.labels == e.labels
    # save_vec writes "%.8g"; each value loads as float() reads that text.
    want = [[float("%.8g" % v) for v in row] for row in e.matrix.tolist()]
    assert_same_bits(back.matrix, np.array(want))


@pytest.mark.parametrize("raw, want", [
    # The text reader turns CRLF into LF before the loop sees it.
    (b"2 2\r\na 1 2\r\nb 3 4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1 2\na 1_0 2\n".encode(), [[10.0, 2.0]]),
    ("1 2\na \u0661 2\n".encode(), [[1.0, 2.0]]),  # Arabic-Indic one
])
def test_crlf_underscores_and_unicode_digits_load_as_the_loop_does(tmp_path, raw, want):
    p = tmp_path / "a.vec"
    p.write_bytes(raw)
    e = load_vec(str(p))
    assert e.labels == ("a", "b")[: len(want)]
    assert_same_bits(e.matrix, np.array(want))


@pytest.mark.parametrize("name", ["big.vec", "big.vec.gz"])
@pytest.mark.parametrize("header, message", [
    ("1000000000 1000", "line 2: expected a word and 1000 values, got 2 tokens"),
    ("1000000000 1", "line 3: file ends after 1 data rows, header declared 1000000000"),
])
def test_a_header_larger_than_the_file_allocates_only_what_the_file_holds(
    tmp_path, name, header, message
):
    # Either header asks for 8 GB or more up front.
    text = f"{header}\nw 1\n".encode()
    p = tmp_path / name
    p.write_bytes(gzip.compress(text) if name.endswith(".gz") else text)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_vec(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 8 << 20


def test_a_gzip_file_holds_more_rows_than_its_size_in_bytes_allows_as_text(tmp_path):
    # Rows of zeros compress far below 2d + 2 bytes a line, so the row
    # bound of a gzip file comes from what its bytes can expand to.
    n, d = 200, 300
    text = f"{n} {d}\n" + "".join(f"w{i} " + " ".join(["0"] * d) + "\n" for i in range(n))
    p = tmp_path / "zeros.vec.gz"
    p.write_bytes(gzip.compress(text.encode()))
    assert os.path.getsize(p) // (2 * d + 2) < n
    e = load_vec(str(p))
    assert e.size == n and not e.matrix.any()


def test_max_rows_reads_no_further(tmp_path):
    good = "".join(f"w{i} {i} -{i}\n" for i in range(5))
    p = write(tmp_path / "a.vec", "9 2\n" + good + "w0 not a row\n\n \x1c")
    e = load_vec(p, max_rows=5)
    assert e.labels == tuple(f"w{i}" for i in range(5))
    assert e.matrix[:, 1].tolist() == [-0.0, -1.0, -2.0, -3.0, -4.0]
    # A file that stops right after the wanted rows is not truncated.
    p = write(tmp_path / "b.vec", "9 2\n" + good)
    assert load_vec(p, max_rows=5).size == 5


# (data lines after the good ones, header count beyond the good ones,
# expected error): the error cases above, placed after 4 good rows and
# after 130, past the first 128.
LATE_ERRORS = [
    (["a 1 2\n"], 2, "file ends after {g1} data rows, header declared {n}"),
    (["a 1 2 3\n"], 1, "expected a word and 2 values, got 4 tokens"),
    (["a 1\n"], 1, "expected a word and 2 values, got 2 tokens"),
    (["a 1 z\n"], 1, "unparseable numeric value"),
    (["a 1 2\n", "a 3 4\n"], 2, "duplicate word 'a'"),
    (["g0 1 2\n"], 1, "duplicate word 'g0'"),  # repeats the first row's word
    (["a 1 2\n"], 0, "more data rows than the header's {n}"),
    ([" 1 2\n"], 1, "empty word"),
    (["foo  1 2\n"], 1, "expected a word and 2 values, got 4 tokens"),
]


@pytest.mark.parametrize("good", [4, 130])
@pytest.mark.parametrize("tail, extra, message", LATE_ERRORS)
def test_errors_in_a_later_chunk_carry_absolute_line_numbers(
    tmp_path, good, tail, extra, message
):
    g = good + 2
    n = g + extra
    rows = "".join(f"g{i} {i} 0.5\n" for i in range(g))
    p = write(tmp_path / "bad.vec", f"{n} 2\n" + rows + "".join(tail))
    with pytest.raises(ParseError) as err:
        load_vec(p)
    # The failing line is the last one written; truncation names the
    # line after it.
    line = g + len(tail) + 1
    if message.startswith("file ends"):
        line += 1
    want = message.format(g1=g + 1, n=n)
    assert str(err.value) == f"line {line}: {want}"


@pytest.mark.filterwarnings("error")
def test_file_ending_at_a_chunk_boundary_is_truncated(tmp_path):
    # The file ends with a whole line, one row short of its header.
    good = "".join(f"g{i} {i} 0.5\n" for i in range(8))
    p = write(tmp_path / "bad.vec", "9 2\n" + good)
    with pytest.raises(ParseError) as err:
        load_vec(p)
    assert str(err.value) == "line 10: file ends after 8 data rows, header declared 9"


# --------------------------------------------------------------------------
# The parse cache beside each .vec file.


def cache_of(path):
    return str(path) + data_io._CACHE_SUFFIX


@pytest.fixture
def no_parse(monkeypatch):
    """Call to make every later load_vec fail unless the cache serves it."""

    def refuse(path, max_rows):
        raise AssertionError(f"{path} was parsed, not served from its cache")

    return lambda: monkeypatch.setattr(data_io, "_parse_vec", refuse)


# Words with non-ASCII letters and tabs; a tab is part of a word.
WORDS = ("naïve", "日本", "a\tb", "\tlead", "Ωmega", "x")


def vec_text(n, d, rows=None, seed=0, words=None):
    """A .vec body: header n d, then rows data lines (default n)."""
    rng = np.random.default_rng(seed)
    rows = n if rows is None else rows
    words = words or [f"w{i}" for i in range(rows)]
    body = "".join(w + " " + " ".join("%.17g" % v for v in rng.standard_normal(d)) + "\n"
                   for w in words[:rows])
    return f"{n} {d}\n" + body


@pytest.mark.parametrize("block", [64, None])
@pytest.mark.parametrize("name, max_rows", [
    ("a.vec", None), ("a.vec.gz", None), ("a.vec", 4), ("a.vec", 6), ("a.vec", 50),
])
def test_cache_hit_is_bit_identical_to_the_parse(tmp_path, monkeypatch, no_parse,
                                                 block, name, max_rows):
    # 64-byte blocks put line ends and the max_rows cut across block edges.
    if block is not None:
        monkeypatch.setattr(data_io, "_HASH_BLOCK", block)
    text = vec_text(len(WORDS), 5, words=WORDS)
    p = tmp_path / name
    p.write_bytes(gzip.compress(text.encode()) if name.endswith(".gz") else text.encode())
    parsed = load_vec(str(p), max_rows)
    assert parsed.labels == WORDS[:max_rows]
    assert os.path.exists(cache_of(p))
    no_parse()
    hit = load_vec(str(p), max_rows)
    assert hit.labels == parsed.labels
    assert_same_bits(hit.matrix, parsed.matrix)


@pytest.mark.parametrize("error", [None, "unparseable numeric value"])
def test_same_size_rewrite_with_the_old_mtime_is_not_served(tmp_path, error):
    # 6000 rows of about 200 bytes: the changed byte sits past the first
    # 64 KB and past the first 1 MB hash block.
    n = 6000
    p = tmp_path / "a.vec"
    p.write_text(vec_text(n, 10), encoding="utf-8")
    first = load_vec(str(p))
    st = os.stat(p)
    raw = bytearray(p.read_bytes())
    i = raw.rindex(b"0.") + 3  # a digit of the last row
    raw[i] = ord("z") if error else ord("7") if raw[i] != ord("7") else ord("8")
    p.write_bytes(bytes(raw))
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(p).st_size == st.st_size
    if error is None:
        again = load_vec(str(p))
        assert not np.array_equal(again.matrix[-1], first.matrix[-1])
        assert_same_bits(again.matrix, parse(str(p)))
    else:
        with pytest.raises(ParseError) as err:
            load_vec(str(p))
        assert str(err.value) == f"line {n + 1}: {error}"


def test_a_max_rows_cache_is_not_served_to_a_full_load(tmp_path, no_parse):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(9, 3), encoding="utf-8")
    assert load_vec(str(p), max_rows=5).size == 5
    assert load_vec(str(p)).size == 9
    # Only the wanted rows are hashed: a change after them is still a hit.
    head = load_vec(str(p), max_rows=5)
    p.write_text(vec_text(9, 3).replace("w8 ", "v8 "), encoding="utf-8")
    no_parse()
    assert_same_bits(load_vec(str(p), max_rows=5).matrix, head.matrix)


def test_a_max_rows_cache_does_not_hide_truncation(tmp_path):
    # Header 9, 5 rows: a max_rows=5 load is whole, a full load is not.
    p = tmp_path / "a.vec"
    p.write_text(vec_text(9, 3, rows=5), encoding="utf-8")
    assert load_vec(str(p), max_rows=5).size == 5
    with pytest.raises(ParseError) as err:
        load_vec(str(p))
    assert str(err.value) == "line 7: file ends after 5 data rows, header declared 9"


def test_a_hit_does_not_hide_a_decode_error_the_parser_would_meet(tmp_path, monkeypatch):
    # The text reader decodes ahead of the lines it returns, so a bad byte
    # in the row after the wanted ones fails the parse of a max_rows load.
    # A hash block that ends with the wanted rows leaves that byte to the
    # block read past them.
    p = tmp_path / "a.vec"
    lines = vec_text(9, 3).encode().splitlines(keepends=True)
    monkeypatch.setattr(data_io, "_HASH_BLOCK", len(lines[1]) + len(lines[2]))
    p.write_bytes(b"".join(lines))
    load_vec(str(p), max_rows=2)
    lines[3] = lines[3][:-2] + b"\xff\n"
    p.write_bytes(b"".join(lines))
    with pytest.raises(UnicodeDecodeError):
        load_vec(str(p), max_rows=2)


def flip_method(raw, method):
    at = raw.index(b"PK\x01\x02") + 10
    return raw[:at] + method.to_bytes(2, "little") + raw[at + 2:]


def npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


@pytest.mark.parametrize("damage", [
    lambda raw, other: raw[: len(raw) // 2],  # truncated
    lambda raw, other: raw[:100] + bytes(200) + raw[300:],  # zip CRC fails
    lambda raw, other: np.random.default_rng(0).bytes(len(raw)),  # garbage
    lambda raw, other: b"",
    lambda raw, other: other,  # the cache of another file: another key
    # The compression method of the first central-directory entry set to
    # deflate (zlib.error on stored bytes) and to an unknown method
    # (NotImplementedError).
    lambda raw, other: flip_method(raw, 8),
    lambda raw, other: flip_method(raw, 99),
    lambda raw, other: npy_bytes(np.zeros(3)),  # np.load returns an array
])
def test_a_damaged_cache_is_a_miss_and_is_rewritten(tmp_path, no_parse, damage):
    p, q = tmp_path / "a.vec", tmp_path / "b.vec"
    p.write_text(vec_text(40, 8), encoding="utf-8")
    q.write_text(vec_text(40, 8, seed=1), encoding="utf-8")
    want = load_vec(str(p))
    load_vec(str(q))
    with open(cache_of(p), "rb") as fh:
        raw = fh.read()
    with open(cache_of(q), "rb") as fh:
        other = fh.read()
    with open(cache_of(p), "wb") as fh:
        fh.write(damage(raw, other))
    assert_same_bits(load_vec(str(p)).matrix, want.matrix)
    no_parse()
    assert_same_bits(load_vec(str(p)).matrix, want.matrix)


def test_a_cache_with_the_right_key_and_the_wrong_shape_is_a_miss(tmp_path):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(4, 3), encoding="utf-8")
    key = data_io._vec_key(str(p), None)
    np.savez(cache_of(p), key=np.frombuffer(key.digest, dtype=np.uint8),
             labels=np.frombuffer(b"w0\nw1\nw2\nw3", dtype=np.uint8),
             matrix=np.zeros((4, 4)))
    assert load_vec(str(p)).dim == 3


def plant_zero_cache(p):
    """Write p's cache file with the right key and an all-zero matrix."""
    key = data_io._vec_key(str(p), None)
    np.savez(cache_of(p), key=np.frombuffer(key.digest, dtype=np.uint8),
             labels=np.frombuffer(b"w0\nw1\nw2\nw3", dtype=np.uint8),
             matrix=np.zeros((key.want, key.d)))


def test_a_cache_owned_by_another_user_is_a_miss(tmp_path, monkeypatch):
    # Anyone who can read a.vec can compute its key, so the key alone
    # does not make a cache file trustworthy.
    p = tmp_path / "a.vec"
    p.write_text(vec_text(4, 3), encoding="utf-8")
    plant_zero_cache(p)
    assert not load_vec(str(p)).matrix.any()  # our own file is served
    uid = os.getuid()
    monkeypatch.setattr(data_io.os, "getuid", lambda: uid + 1)
    assert_same_bits(load_vec(str(p)).matrix, parse(str(p)))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_fifo_at_the_cache_path_does_not_stall_the_load(tmp_path):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(4, 3), encoding="utf-8")
    os.mkfifo(cache_of(p))
    out = []
    # A blocking open of a FIFO with no writer would never return.
    t = threading.Thread(target=lambda: out.append(load_vec(str(p))), daemon=True)
    t.start()
    t.join(30)
    assert out and out[0].size == 4


def test_a_change_to_the_parser_source_makes_older_caches_miss(tmp_path, monkeypatch):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(4, 3), encoding="utf-8")
    plant_zero_cache(p)
    monkeypatch.setattr(data_io, "_cache_tag", lambda: b"another parser")
    assert_same_bits(load_vec(str(p)).matrix, parse(str(p)))


def test_the_cache_tag_is_a_digest_of_the_module_source():
    with open(data_io.__file__, "rb") as fh:
        assert data_io._cache_tag() == hashlib.sha256(fh.read()).digest()


def test_a_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(data_io.os, "replace", refuse)
    p = tmp_path / "a.vec"
    p.write_text(vec_text(5, 3), encoding="utf-8")
    assert load_vec(str(p)).size == 5
    assert os.listdir(tmp_path) == ["a.vec"]


def test_a_file_that_fails_to_parse_leaves_no_cache(tmp_path):
    p = tmp_path / "bad.vec"
    p.write_text(vec_text(5, 3) + "w9 1 2 3\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_vec(str(p))
    assert os.listdir(tmp_path) == ["bad.vec"]


def test_a_file_rewritten_during_its_parse_is_not_cached(tmp_path, monkeypatch):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(5, 3), encoding="utf-8")
    parse = data_io._parse_vec

    def parse_then_rewrite(path, max_rows):
        out = parse(path, max_rows)
        p.write_text(vec_text(5, 3, seed=1), encoding="utf-8")
        return out

    monkeypatch.setattr(data_io, "_parse_vec", parse_then_rewrite)
    load_vec(str(p))
    assert os.listdir(tmp_path) == ["a.vec"]


def test_the_cache_file_mode_follows_the_umask(tmp_path):
    p = tmp_path / "a.vec"
    p.write_text(vec_text(5, 3), encoding="utf-8")
    old = os.umask(0o027)
    try:
        load_vec(str(p))
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(cache_of(p)).st_mode) == 0o640


def test_vec_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    e = EmbeddingSet(
        labels=("alpha", "beta", "gamma"),
        matrix=rng.standard_normal((3, 4)),
    )
    p = tmp_path / "out.vec"
    save_vec(str(p), e)
    back = load_vec(str(p))
    assert back.labels == e.labels
    # save_vec writes 8 significant digits.
    assert np.abs(back.matrix - e.matrix).max() < 1e-7


def test_vec_gzip_round_trip(tmp_path):
    e = EmbeddingSet(labels=("a", "b"), matrix=np.eye(2))
    p = tmp_path / "out.vec.gz"
    save_vec(str(p), e)
    with open(p, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"
    back = load_vec(str(p))
    assert back.labels == ("a", "b")
    assert np.array_equal(back.matrix, np.eye(2))


@pytest.mark.parametrize("name", ["out.vec", "out.vec.gz"])
def test_save_vec_bytes_equal_per_value_formatting(tmp_path, name):
    awkward = [-0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
               0.12345678901234567, -9.8765432109876543e-17, 1e22, 123456789.0]
    m = np.array([awkward, awkward[::-1],
                  np.random.default_rng(2).standard_normal(len(awkward))])
    # An EmbeddingSet refuses inf and nan; save_vec reads only these fields.
    e = SimpleNamespace(size=3, dim=len(awkward), labels=("a", "b", "c"), matrix=m)
    p = tmp_path / name
    save_vec(str(p), e)
    want = f"3 {len(awkward)}\n" + "".join(
        word + " " + " ".join("%.8g" % v for v in row) + "\n"
        for word, row in zip(e.labels, m))
    got = gzip.decompress(p.read_bytes()) if name.endswith(".gz") else p.read_bytes()
    assert got == want.encode("utf-8")


def test_embedding_set_validation():
    with pytest.raises(InvalidInputError):
        EmbeddingSet(labels=("a", "a"), matrix=np.eye(2))
    with pytest.raises(InvalidInputError):
        EmbeddingSet(labels=("a",), matrix=np.eye(2))


@pytest.mark.parametrize("sidecar", [True, False])
def test_map_round_trip_is_exact(tmp_path, sidecar):
    rng = np.random.default_rng(1)
    m, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q = OrthogonalMap(q=m)
    p = tmp_path / "q.map"
    save_map(str(p), q)
    if not sidecar:
        os.unlink(cache_of(p))
    back = load_map(str(p))
    # 17 significant digits reproduce float64 bit for bit.
    assert np.array_equal(back.q, q.q)


def test_load_map_rejects_tampering(tmp_path):
    q = OrthogonalMap(q=np.eye(3))
    p = tmp_path / "q.map"
    save_map(str(p), q)
    lines = p.read_text().splitlines()
    lines[1] = "1.1 0 0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError):
        load_map(str(p))


@pytest.mark.parametrize("delta, loads", [(3e-8, True), (1e-5, False)])
def test_load_map_orthogonality_tolerance_is_1e6(tmp_path, delta, loads):
    # diag(1 + delta, 1, 1) has ||q'q - I||_F = 2 delta + delta^2: 6e-8
    # is inside the 1e-6 load tolerance, 2e-5 is outside it.
    p = write(tmp_path / "q.map", f"3\n{1 + delta!r} 0 0\n0 1 0\n0 0 1\n")
    if loads:
        assert load_map(p).q[0, 0] == 1 + delta
    else:
        with pytest.raises(IntegrityError):
            load_map(p)


def test_save_map_bytes_equal_per_value_formatting(tmp_path):
    awkward = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
               0.12345678901234567, -0.70710678118654746, 1.0000000000000002]
    m = np.array([awkward, awkward[::-1],
                  np.random.default_rng(3).standard_normal(len(awkward))])
    # save_map reads only these fields; an OrthogonalMap would refuse m.
    q = SimpleNamespace(dim=len(awkward), q=m)
    p = tmp_path / "q.map"
    save_map(str(p), q)
    want = f"{len(awkward)}\n" + "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in m)
    assert p.read_bytes() == want.encode("utf-8")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_map_rejects_non_finite_entries(tmp_path, value):
    p = write(tmp_path / "q.map", f"3\n1 0 0\n0 {value} 0\n0 0 1\n")
    with pytest.raises(IntegrityError) as err:
        load_map(p)
    assert "line 3" in str(err.value)
    assert "non-finite" in str(err.value)


def test_load_map_parse_errors(tmp_path):
    p = write(tmp_path / "q.map", "x\n")
    with pytest.raises(ParseError):
        load_map(str(p))
    p = write(tmp_path / "q2.map", "2\n1 0\n")
    with pytest.raises(ParseError) as err:
        load_map(str(p))
    assert "line 3" in str(err.value)


# The map line loop as it stands before any test patches it.
_MAP_LOOP = data_io._parse_map_lines


@pytest.mark.parametrize("sep", [" ", "\t", "  \x0b "])
@pytest.mark.parametrize("last_newline", [True, False])
def test_map_line_loop_reads_each_value_as_float_does(sep, last_newline):
    # Every token appears in every column; the row check on non-finite
    # values comes after the parse, so nan and inf are parsed here too.
    d = len(AWKWARD)
    tokens = [[AWKWARD[(i + j) % d] for j in range(d)] for i in range(d)]
    lines = [" " + sep.join(row) + " \n" for row in tokens]
    if not last_newline:
        lines[-1] = lines[-1].rstrip("\n")
    want = np.array([[float(t) for t in row] for row in tokens])
    assert_same_bits(_MAP_LOOP(lines, d), want)


@pytest.fixture
def map_parses(monkeypatch):
    """Count the maps whose rows are parsed; a sidecar hit parses none."""
    calls = []

    def spy(lines, d):
        calls.append(len(lines))
        return _MAP_LOOP(lines, d)

    monkeypatch.setattr(data_io, "_parse_map_lines", spy)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, message", [
    ("2\n1 0\n", "line 3: map ends after 1 of 2 rows"),
    ("2\n", "line 2: map ends after 0 of 2 rows"),
    ("2\n1 0 0\n0 1\n", "line 2: expected 2 values, got 3"),
    ("2\n1 0\n0 1 #c\n", "line 3: expected 2 values, got 3"),
    # A blank row is a row of no values, not one to skip.
    ("2\n1 0\n\n", "line 3: expected 2 values, got 0"),
    ("2\n1 0\n\n0 1\n", "line 3: expected 2 values, got 0"),
    ("2\n\n\n", "line 2: expected 2 values, got 0"),
    # The rows are read before the matrix is made, so a header larger
    # than the file allocates nothing.
    ("100000000\n1 0\n0 1\n", "line 2: expected 100000000 values, got 2"),
    ("2\n1 z\n0 1\n", "line 2: unparseable numeric value"),
    ("2\n1 0\n0 0x1\n", "line 3: unparseable numeric value"),
])
def test_load_map_errors_come_from_the_line_loop(tmp_path, map_parses, body, message):
    p = write(tmp_path / "q.map", body)
    with pytest.raises(ParseError) as err:
        load_map(p)
    assert str(err.value) == message
    assert len(map_parses) == 1


@pytest.mark.parametrize("body", ["2\n1 0_0\n0 1\n", "2\n\u0661 0\n0 1\n"])
def test_load_map_takes_what_float_takes(tmp_path, map_parses, body):
    # float() reads underscores and non-ASCII digits, so these rows load.
    assert load_map(write(tmp_path / "q.map", body)).q.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert len(map_parses) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, message", [
    ("0\n", "line 1: map dimension must be positive, got 0"),
    ("-1\n1\n", "line 1: map dimension must be positive, got -1"),
    # The header is one integer, as a .vec header is two.
    ("2 junk 7\n1 0\n0 1\n", "line 1: map header must be '<d>', got '2 junk 7'"),
    ("\n1\n", "line 1: map header must be '<d>', got ''"),
    # Rows after the declared ones are refused, as load_vec refuses them.
    ("2\n1 0\n0 1\n0 1\n", "line 4: more rows than the header's 2"),
    ("1\n1\n 2 \n", "line 3: more rows than the header's 1"),
])
def test_load_map_refuses_empty_dimensions_and_extra_rows(tmp_path, body, message):
    with pytest.raises(ParseError) as err:
        load_map(write(tmp_path / "q.map", body))
    assert str(err.value) == message


@pytest.mark.parametrize("tail", ["", "\n", " \t\n"])
def test_load_map_takes_a_blank_line_after_the_rows(tmp_path, tail):
    q = OrthogonalMap(q=np.eye(2))
    p = tmp_path / "q.map"
    save_map(str(p), q)
    with open(p, "a", encoding="utf-8") as fh:
        fh.write(tail)
    assert_same_bits(load_map(str(p)).q, q.q)


# --------------------------------------------------------------------------
# The sidecar save_map writes beside each map.


def saved_map(tmp_path, d=6, seed=0):
    q = OrthogonalMap(q=np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0])
    p = tmp_path / "q.map"
    save_map(str(p), q)
    return p, q


def plant_map_sidecar(p, matrix):
    """Write p's sidecar with the key of p's current bytes and this matrix."""
    np.savez(cache_of(p), key=np.frombuffer(data_io._map_digest(p.read_bytes()),
                                             dtype=np.uint8), matrix=matrix)


def test_a_map_sidecar_hit_is_bit_identical_to_the_parse(tmp_path, map_parses):
    p, q = saved_map(tmp_path, d=40)
    with np.load(cache_of(p)) as z:
        assert_same_bits(z["matrix"], q.q)
    hit = load_map(str(p))
    assert map_parses == []
    os.unlink(cache_of(p))
    parsed = load_map(str(p))
    assert map_parses == [40]
    assert_same_bits(hit.q, parsed.q)
    # load_map writes nothing: the parse left no sidecar behind.
    assert os.listdir(tmp_path) == ["q.map"]


@pytest.mark.parametrize("error", [None, "unparseable numeric value"])
def test_a_same_size_map_edit_with_the_old_mtime_is_not_served(tmp_path, map_parses,
                                                              error):
    p, q = saved_map(tmp_path)
    st = os.stat(p)
    raw = bytearray(p.read_bytes())
    # The 16th significant digit of the last value: orthogonal either way.
    last = raw.rindex(b" ") + 1
    i = last + len(raw[last:].rstrip(b"\n").split(b"e")[0]) - 2
    raw[i] = ord("z") if error else ord("1") if raw[i] != ord("1") else ord("2")
    p.write_bytes(bytes(raw))
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(p).st_size == st.st_size
    if error is None:
        again = load_map(str(p))
        assert map_parses == [6]
        assert again.q[-1, -1] != q.q[-1, -1]
        with open(p, encoding="utf-8") as fh:
            want = np.array([[float(v) for v in line.split()] for line in fh.readlines()[1:]])
        assert_same_bits(again.q, want)
    else:
        with pytest.raises(ParseError) as err:
            load_map(str(p))
        assert str(err.value) == f"line 7: {error}"


@pytest.mark.parametrize("damage", [
    lambda raw: raw[: len(raw) // 2],  # truncated
    lambda raw: np.random.default_rng(0).bytes(len(raw)),  # garbage
    lambda raw: b"",
])
def test_a_damaged_map_sidecar_is_a_miss(tmp_path, map_parses, damage):
    p, q = saved_map(tmp_path)
    with open(cache_of(p), "rb") as fh:
        raw = fh.read()
    with open(cache_of(p), "wb") as fh:
        fh.write(damage(raw))
    assert_same_bits(load_map(str(p)).q, q.q)
    assert map_parses == [6]


def test_a_map_sidecar_owned_by_another_user_is_a_miss(tmp_path, monkeypatch, map_parses):
    p, q = saved_map(tmp_path)
    plant_map_sidecar(p, -q.q)  # orthogonal, and not what the text holds
    assert_same_bits(load_map(str(p)).q, -q.q)  # our own file is served
    uid = os.getuid()
    monkeypatch.setattr(data_io.os, "getuid", lambda: uid + 1)
    assert_same_bits(load_map(str(p)).q, q.q)
    assert map_parses == [6]


@pytest.mark.parametrize("matrix", [np.eye(7), np.eye(6)[:, :5], np.eye(6, dtype=np.float32)])
def test_a_map_sidecar_with_the_right_key_and_the_wrong_shape_is_a_miss(
        tmp_path, map_parses, matrix):
    p, q = saved_map(tmp_path)
    plant_map_sidecar(p, matrix)
    assert_same_bits(load_map(str(p)).q, q.q)
    assert map_parses == [6]


@pytest.mark.parametrize("entry", [1.1, np.nan])
def test_a_map_sidecar_hit_is_still_checked(tmp_path, map_parses, entry):
    p, _ = saved_map(tmp_path)
    m = np.eye(6)
    m[2, 2] = entry
    plant_map_sidecar(p, m)
    with pytest.raises(IntegrityError):
        load_map(str(p))
    assert map_parses == []


def test_a_failed_map_sidecar_write_leaves_only_the_map(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(data_io.os, "replace", refuse)
    p, q = saved_map(tmp_path)
    assert os.listdir(tmp_path) == ["q.map"]
    assert_same_bits(load_map(str(p)).q, q.q)


def test_load_lexicon(tmp_path):
    p = write(tmp_path / "l.txt", "dog chien\n\ncat chat\n")
    lex = load_lexicon(p)
    assert lex.pairs == (("dog", "chien"), ("cat", "chat"))
    assert len(lex) == 2


def test_load_lexicon_tolerates_crlf_and_tabs(tmp_path):
    p = tmp_path / "l.txt"
    p.write_bytes(b"dog\tchien\r\ncat chat\r\n")
    lex = load_lexicon(str(p))
    assert lex.pairs == (("dog", "chien"), ("cat", "chat"))


def test_load_lexicon_errors(tmp_path):
    p = write(tmp_path / "l.txt", "dog chien perro\n")
    with pytest.raises(ParseError) as err:
        load_lexicon(p)
    assert "line 1" in str(err.value)
    p = write(tmp_path / "empty.txt", "\n\n")
    with pytest.raises(ParseError):
        load_lexicon(p)


def test_lexicon_validation():
    with pytest.raises(InvalidInputError):
        Lexicon(pairs=())
    with pytest.raises(InvalidInputError):
        Lexicon(pairs=(("a", ""),))


def test_synth_generate_construction():
    inst = synth_generate(40, 5, 0.0, seed=7)
    x = inst.x.matrix
    y = inst.y.matrix
    perm = inst.true_permutation.mapping
    # Row i of y is the rotated row perm[i] of x, exactly at sigma 0.
    assert np.allclose(y, x[perm] @ inst.true_rotation.q, atol=1e-12)
    assert inst.x.labels[0] == "s0000"
    assert inst.y.labels[39] == "t0039"
    gold = dict(inst.gold_pairs())
    assert gold[inst.x.labels[perm[0]]] == inst.y.labels[0]


def test_synth_generate_noise_scale():
    inst = synth_generate(4000, 8, 0.5, seed=8)
    resid = inst.y.matrix - (inst.x.matrix @ inst.true_rotation.q)[
        inst.true_permutation.mapping
    ]
    # Per-coordinate residuals are N(0, 0.25); the chi-square spread at
    # this sample size stays within a few percent.
    assert abs(resid.var() - 0.25) < 0.01
    assert abs(resid.mean()) < 0.01


def test_synth_generate_deterministic():
    a = synth_generate(30, 4, 0.1, seed=9)
    b = synth_generate(30, 4, 0.1, seed=9)
    assert np.array_equal(a.x.matrix, b.x.matrix)
    assert np.array_equal(a.y.matrix, b.y.matrix)
    assert np.array_equal(a.true_permutation.mapping, b.true_permutation.mapping)
    c = synth_generate(30, 4, 0.1, seed=10)
    assert not np.array_equal(a.x.matrix, c.x.matrix)


def test_synth_generate_bounds():
    with pytest.raises(InvalidArgumentError):
        synth_generate(3, 4, 0.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        synth_generate(10, 1, 0.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        synth_generate(10, 4, -0.1, seed=0)


def test_label_width_grows_with_n():
    inst = synth_generate(10001, 2, 0.0, seed=1)
    assert inst.x.labels[10000] == "s10000"
    assert inst.x.labels[5] == "s00005"

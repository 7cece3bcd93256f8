"""File formats: strict parsing, round trips, synthetic generator."""

import gzip

import numpy as np
import pytest

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


def test_embedding_set_validation():
    with pytest.raises(InvalidInputError):
        EmbeddingSet(labels=("a", "a"), matrix=np.eye(2))
    with pytest.raises(InvalidInputError):
        EmbeddingSet(labels=("a",), matrix=np.eye(2))


def test_map_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    m, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q = OrthogonalMap(q=m)
    p = tmp_path / "q.map"
    save_map(str(p), q)
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


def test_load_map_parse_errors(tmp_path):
    p = write(tmp_path / "q.map", "x\n")
    with pytest.raises(ParseError):
        load_map(str(p))
    p = write(tmp_path / "q2.map", "2\n1 0\n")
    with pytest.raises(ParseError) as err:
        load_map(str(p))
    assert "line 3" in str(err.value)


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

"""Command line surface: pipelines, manifests, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

import wproc
import wproc.aligner as aligner_mod
import wproc.refine as refine_mod
import wproc.retrieval as retrieval_mod
import wproc.sinkhorn as sinkhorn_mod
from wproc import __version__, data_io
from wproc.cli import main
from wproc.errors import EmptyResultError


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def inst(tmp_path):
    """Noise-free synthetic pair written through the synth subcommand."""
    prefix = tmp_path / "toy"
    code = run("synth", "--n", 50, "--d", 6, "--sigma", 0.0, "--seed", 3,
               "--out", prefix)
    assert code == 0
    return {
        "src": f"{prefix}.src.vec",
        "tgt": f"{prefix}.tgt.vec",
        "map": f"{prefix}.map",
        "lex": f"{prefix}.lex",
        "manifest": f"{prefix}.manifest.json",
        "dir": tmp_path,
    }


def read_lex(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b = line.split()
            pairs.append((a, b))
    return pairs


def test_synth_writes_instance_and_manifest(inst):
    pairs = read_lex(inst["lex"])
    assert len(pairs) == 50
    assert sorted(a for a, _ in pairs) == sorted(f"s{i:04d}" for i in range(50))
    with open(inst["manifest"], encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == "synth"
    assert doc["seed"] == 3
    assert doc["versions"]["wproc"] == __version__
    assert sorted(doc["outputs"]) == doc["outputs"]
    assert "generate" in doc["timings"]


def test_supervised_align_then_eval(inst, tmp_path, capsys):
    out = tmp_path / "sup.map"
    assert run("align", inst["src"], inst["tgt"], "--out", out,
               "--supervised", inst["lex"], "--seed", 0) == 0
    report_path = tmp_path / "report.json"
    assert run("eval", inst["src"], inst["tgt"], "--map", out,
               "--lexicon", inst["lex"], "--out", report_path,
               "--retrieval", "nn", "--ks", "1,5") == 0
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # Normalization commutes with the true rotation at zero noise, so the
    # supervised fit is exact and every gold pair ranks first.
    assert doc["precision_at"]["1"] == 1.0
    assert doc["n_queries"] == 50
    assert doc["oov_skipped"] == 0
    shown = capsys.readouterr().out
    assert "P@1" in shown


def test_translate_matches_gold(inst, tmp_path):
    out = tmp_path / "trans.tsv"
    assert run("translate", inst["src"], inst["tgt"], "--map", inst["map"],
               "--out", out, "--retrieval", "nn", "--topk", 1) == 0
    gold = dict(read_lex(inst["lex"]))
    lines = open(out, encoding="utf-8").read().splitlines()
    assert len(lines) == 50
    for line in lines:
        word, rank, target, score = line.split("\t")
        assert rank == "1"
        assert gold[word] == target


def test_init_align_refine_pipeline(inst, tmp_path):
    init_map = tmp_path / "q0.map"
    assert run("init", inst["src"], inst["tgt"], "--out", init_map,
               "--fw-size", 50, "--fw-iters", 40) == 0
    with open(f"{init_map}.fw_trace.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    values = [float(r["objective"]) for r in rows]
    assert values[-1] <= values[0]

    aligned = tmp_path / "aligned.map"
    loss_csv = tmp_path / "loss.csv"
    assert run("align", inst["src"], inst["tgt"], "--out", aligned,
               "--init", init_map, "--iters", 30, "--batch-size", 25,
               "--no-batch-doubling", "--seed", 7,
               "--loss-csv", loss_csv) == 0
    with open(loss_csv, encoding="utf-8") as fh:
        loss_rows = list(csv.DictReader(fh))
    assert len(loss_rows) == 30

    refined = tmp_path / "refined.map"
    assert run("refine", inst["src"], inst["tgt"], "--map", aligned,
               "--out", refined, "--epochs", 2) == 0
    with open(f"{refined}.epochs.csv", encoding="utf-8") as fh:
        epoch_rows = list(csv.DictReader(fh))
    assert len(epoch_rows) == 2
    assert all(int(r["dictionary_size"]) > 0 for r in epoch_rows)


def test_maps_passed_between_commands_are_served_by_their_sidecars(inst, tmp_path,
                                                                  monkeypatch):
    # Each command reads the map the command before it saved, so every
    # load is a sidecar hit and no map text is parsed.
    def refuse(lines, d):
        raise AssertionError("a saved map was parsed as text")

    loaded = []
    load_map = data_io.load_map

    def spy(path):
        loaded.append(os.path.basename(path))
        return load_map(path)

    monkeypatch.setattr(data_io, "_parse_map_lines", refuse)
    monkeypatch.setattr(data_io, "load_map", spy)
    pair = (inst["src"], inst["tgt"])
    q0, aligned, refined = (tmp_path / name for name in ("q0.map", "aligned.map",
                                                         "refined.map"))
    assert run("init", *pair, "--out", q0, "--fw-size", 50, "--fw-iters", 10) == 0
    assert run("align", *pair, "--out", aligned, "--init", q0, "--iters", 10,
               "--batch-size", 25, "--no-batch-doubling") == 0
    assert run("refine", *pair, "--map", aligned, "--out", refined, "--epochs", 1) == 0
    assert run("translate", *pair, "--map", refined, "--out", tmp_path / "t.tsv") == 0
    assert run("eval", *pair, "--map", refined, "--lexicon", inst["lex"],
               "--out", tmp_path / "report.json") == 0
    assert loaded == ["q0.map", "aligned.map", "refined.map", "refined.map"]


def test_vec_inputs_are_parsed_by_the_first_command_only(inst, tmp_path, monkeypatch):
    # The first load of each file parses it and writes its cache file;
    # every later command reads that file instead.
    parsed = []
    parse_lines = data_io._parse_lines

    def spy(lines, d, out):
        words = parse_lines(lines, d, out)
        parsed.append(words[0])
        return words

    monkeypatch.setattr(data_io, "_parse_lines", spy)
    pair = (inst["src"], inst["tgt"])
    assert not any(os.path.exists(p + data_io._CACHE_SUFFIX) for p in pair)
    q0, aligned, refined = (tmp_path / name for name in ("q0.map", "aligned.map",
                                                         "refined.map"))
    commands = [
        ("init", *pair, "--out", q0, "--fw-size", 50, "--fw-iters", 10),
        ("align", *pair, "--out", aligned, "--init", q0, "--iters", 10,
         "--batch-size", 25, "--no-batch-doubling"),
        ("refine", *pair, "--map", aligned, "--out", refined, "--epochs", 1),
        ("translate", *pair, "--map", refined, "--out", tmp_path / "t.tsv"),
        ("eval", *pair, "--map", refined, "--lexicon", inst["lex"],
         "--out", tmp_path / "report.json"),
    ]
    counts = []
    for argv in commands:
        assert run(*argv) == 0
        counts.append(len(parsed))
    assert parsed == ["s0000", "t0000"]
    assert counts == [2, 2, 2, 2, 2]


@pytest.mark.parametrize("kind", ["csls", "isf"])
def test_translate_max_queries_only_limits_output(inst, tmp_path, kind):
    # CSLS and ISF statistics run over all queries, so a row's lines do
    # not depend on how many rows are written.
    argv = ("translate", inst["src"], inst["tgt"], "--map", inst["map"],
            "--retrieval", kind, "--topk", 3)
    assert run(*argv, "--out", tmp_path / "all.tsv") == 0
    assert run(*argv, "--out", tmp_path / "head.tsv", "--max-queries", 5) == 0
    every = open(tmp_path / "all.tsv", encoding="utf-8").read().splitlines()
    head = open(tmp_path / "head.tsv", encoding="utf-8").read().splitlines()
    assert head == every[:15]


@pytest.mark.parametrize("kind", ["nn", "csls", "isf"])
@pytest.mark.parametrize("n", [1, 5])
def test_translate_max_queries_output_is_the_head_of_a_full_run(inst, tmp_path,
                                                                monkeypatch, kind, n):
    # Every row is mapped and scored in the blocks of a full run, so the
    # bytes of a row do not depend on how many rows are written.  A
    # product over the first row alone rounds differently; 4-row blocks
    # end the last written row mid-block at n=5.
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    argv = ("translate", inst["src"], inst["tgt"], "--map", inst["map"],
            "--retrieval", kind, "--topk", 3)
    assert run(*argv, "--out", tmp_path / "all.tsv") == 0
    assert run(*argv, "--out", tmp_path / "head.tsv", "--max-queries", n) == 0
    every = (tmp_path / "all.tsv").read_bytes().splitlines(keepends=True)
    assert (tmp_path / "head.tsv").read_bytes() == b"".join(every[:3 * n])


def test_translate_nn_max_queries_scores_only_the_blocks_it_writes(inst, tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(retrieval_mod, "_BLOCK_SIZE", 4)
    scored = []
    cos_blocks = retrieval_mod._cos_blocks

    def spy(qn, tn):
        for lo, hi, s in cos_blocks(qn, tn):
            scored.append((lo, hi))
            yield lo, hi, s

    monkeypatch.setattr(retrieval_mod, "_cos_blocks", spy)
    assert run("translate", inst["src"], inst["tgt"], "--map", inst["map"],
               "--retrieval", "nn", "--max-queries", 5,
               "--out", tmp_path / "head.tsv") == 0
    assert scored == [(0, 4), (4, 8)]


@pytest.mark.parametrize("matcher, missed", [("sinkhorn", 4), ("hungarian", 0)])
def test_align_reports_plans_that_miss_tolerance(inst, tmp_path, capsys,
                                                 monkeypatch, matcher, missed):
    monkeypatch.setattr(sinkhorn_mod, "_MAX_ITERS", 1)
    assert run("align", inst["src"], inst["tgt"], "--out", tmp_path / "q.map",
               "--init", "random", "--iters", 4, "--batch-size", 20,
               "--no-batch-doubling", "--matcher", matcher) == 0
    shown = capsys.readouterr()
    line = shown.out.strip()
    assert f", {missed} Sinkhorn plans missed tolerance, worst marginal error " in line
    worst = float(line.split("worst marginal error ")[1].rstrip(")"))
    assert (worst > 1e-6) if missed else (worst == 0.0)
    assert ("warning: 4 Sinkhorn plans missed" in shown.err) == bool(missed)


@pytest.mark.parametrize("max_iters, handed", [(100, 0), (1, 4)])
def test_align_reports_sinkhorn_counts(inst, tmp_path, capsys, monkeypatch,
                                       max_iters, handed):
    # At _MAX_ITERS = 1 every linear loop misses and hands off to Newton.
    monkeypatch.setattr(sinkhorn_mod, "_MAX_ITERS", max_iters)
    plans = []
    solve = aligner_mod.sinkhorn_plan

    def spy(cost, eps=None):
        plans.append(solve(cost, eps))
        return plans[-1]

    monkeypatch.setattr(aligner_mod, "sinkhorn_plan", spy)
    assert run("align", inst["src"], inst["tgt"], "--out", tmp_path / "q.map",
               "--init", "random", "--iters", 4, "--batch-size", 20,
               "--no-batch-doubling", "--matcher", "sinkhorn") == 0
    line = capsys.readouterr().out.strip()
    assert len(plans) == 4
    assert sum(p.handed_off for p in plans) == handed
    iters = sum(p.iterations for p in plans)
    assert f", 4 Sinkhorn plans in {iters} iterations, {handed} handed to Newton, " in line


def test_plot_emits_all_points(inst, tmp_path):
    out = tmp_path / "coords.csv"
    assert run("plot", inst["src"], inst["tgt"], "--map", inst["map"],
               "--out", out) == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert {r["set"] for r in rows} == {"src", "tgt"}
    float(rows[0]["pc1"])
    float(rows[0]["pc2"])


def test_max_vocab_limits_rows(inst, tmp_path):
    out = tmp_path / "trans.tsv"
    assert run("translate", inst["src"], inst["tgt"], "--map", inst["map"],
               "--out", out, "--max-vocab", 10, "--topk", 2) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert len(lines) == 20
    allowed = {f"t{i:04d}" for i in range(10)}
    assert all(line.split("\t")[2] in allowed for line in lines)


def test_manifest_records_argv_and_flags(inst, tmp_path):
    out = tmp_path / "sup.map"
    argv = ["align", inst["src"], inst["tgt"], "--out", str(out),
            "--supervised", inst["lex"], "--seed", "9"]
    assert main(argv) == 0
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["argv"] == argv
    assert doc["command"] == "align"
    assert doc["seed"] == 9
    assert doc["flags"]["supervised"] == inst["lex"]
    assert "func" not in doc["flags"]


PAIR = ("{src}", "{tgt}")


@pytest.mark.parametrize("argv, phases, maps", [
    pytest.param(("init", *PAIR, "--fw-size", 20, "--fw-iters", 5),
                 {"load", "solve", "write"}, ["result"], id="init"),
    pytest.param(("align", *PAIR, "--init", "{map}", "--iters", 4,
                  "--batch-size", 10, "--no-batch-doubling",
                  "--loss-csv", "{dir}/loss.csv"),
                 {"load", "init", "align", "write"}, ["result"], id="align"),
    pytest.param(("align", *PAIR, "--supervised", "{lex}"),
                 {"load", "solve", "write"}, ["result"], id="align-supervised"),
    pytest.param(("refine", *PAIR, "--map", "{map}", "--epochs", 1),
                 {"load", "refine", "write"}, ["result"], id="refine"),
    pytest.param(("translate", *PAIR, "--map", "{map}"),
                 {"load", "retrieve", "write"}, [], id="translate"),
    pytest.param(("eval", *PAIR, "--map", "{map}", "--lexicon", "{lex}"),
                 {"load", "evaluate", "write"}, [], id="eval"),
    pytest.param(("synth", "--n", 10, "--d", 3),
                 {"generate", "write"}, ["result.map"], id="synth"),
    pytest.param(("plot", *PAIR, "--map", "{map}"),
                 {"load", "project", "write"}, [], id="plot"),
    pytest.param(("bench-batch-size", "--n", 40, "--d", 3, "--seeds", 1,
                  "--sizes", "8,16", "--iters", 2),
                 {"generate", "align_b8_seed1000", "align_b16_seed1000", "write"}, [],
                 id="bench-batch-size"),
])
def test_manifest_records_phases_and_outputs(inst, tmp_path, argv, phases, maps):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    fill = dict(inst, dir=run_dir)
    out = run_dir / "result"
    assert main([str(a).format(**fill) for a in argv] + ["--out", str(out)]) == 0
    manifest = run_dir / "result.manifest.json"
    with open(manifest, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc["timings"]) == phases
    # The outputs are the result files; beside them sit the manifest and
    # one sidecar for each map the command saved.
    maps = [str(run_dir / m) for m in maps]
    assert set(maps) <= set(doc["outputs"])
    sidecars = [m + data_io._CACHE_SUFFIX for m in maps]
    assert sorted(str(p) for p in run_dir.iterdir()) == sorted(
        doc["outputs"] + [str(manifest)] + sidecars)
    assert doc["outputs"] == sorted(doc["outputs"])


def test_refine_empty_dictionary_still_writes_manifest(inst, tmp_path,
                                                       monkeypatch):
    def empty(*args, **kwargs):
        raise EmptyResultError("no mutual nearest neighbors; cannot refine")

    monkeypatch.setattr(refine_mod, "mutual_nn_dictionary", empty)
    out = tmp_path / "r.map"
    assert run("refine", inst["src"], inst["tgt"], "--map", inst["map"],
               "--out", out) == 5
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["outputs"] == [str(out), f"{out}.epochs.csv"]


def test_importing_cli_loads_no_numeric_library():
    # The --threads cap has to reach the environment before numpy or scipy
    # starts a thread pool, so wproc.cli may import them only in commands.
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(wproc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    code = ("import sys, wproc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_replay_regenerates_outputs(inst, tmp_path, capsys):
    with open(inst["src"], "rb") as fh:
        before = fh.read()
    assert run("replay", inst["manifest"]) == 0
    assert "replaying:" in capsys.readouterr().out
    with open(inst["src"], "rb") as fh:
        assert fh.read() == before


def test_align_reruns_byte_identical(inst, tmp_path):
    outs = []
    for name in ("a.map", "b.map"):
        out = tmp_path / name
        assert run("align", inst["src"], inst["tgt"], "--out", out,
                   "--init", "random", "--iters", 12, "--batch-size", 25,
                   "--no-batch-doubling", "--seed", 11) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_bench_batch_size_csv_determinism(tmp_path):
    csvs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert run("bench-batch-size", "--n", 60, "--d", 5, "--seed", 2,
                   "--seeds", 1, "--sizes", "8,16", "--iters", 4,
                   "--matcher", "hungarian", "--out", out) == 0
        csvs.append(open(out, "rb").read())
    assert csvs[0] == csvs[1]
    rows = list(csv.DictReader(csvs[0].decode().splitlines()))
    assert [r["batch_size"] for r in rows] == ["8", "16"]


def test_exit_parse_on_bad_vec(tmp_path):
    bad = tmp_path / "bad.vec"
    bad.write_text("not_a_number five\n")
    assert run("translate", bad, bad, "--map", "x", "--out",
               tmp_path / "o") == 2


def test_exit_parse_on_a_vec_header_larger_than_the_file(tmp_path):
    big = tmp_path / "big.vec"
    big.write_text("1000000000 1000\nw 1\n")
    assert run("translate", big, big, "--map", "x", "--out", tmp_path / "o") == 2


def test_exit_parse_on_tampered_map(inst, tmp_path):
    lines = open(inst["map"], encoding="utf-8").read().splitlines()
    lines[1] = " ".join(["1.1"] * 6)
    broken = tmp_path / "broken.map"
    broken.write_text("\n".join(lines) + "\n")
    assert run("translate", inst["src"], inst["tgt"], "--map", broken,
               "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("command", ["refine", "eval"])
def test_exit_parse_on_a_map_header_larger_than_the_file(inst, tmp_path, command):
    big = tmp_path / "big.map"
    big.write_text("100000000\n1 0\n0 1\n")
    extra = ("--lexicon", inst["lex"]) if command == "eval" else ()
    assert run(command, inst["src"], inst["tgt"], "--map", big, *extra,
               "--out", tmp_path / "o") == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_exit_parse_on_non_finite_map(inst, tmp_path, value):
    with open(inst["map"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[2] = " ".join([value] + lines[2].split()[1:])
    broken = tmp_path / "broken.map"
    broken.write_text("\n".join(lines) + "\n")
    assert run("translate", inst["src"], inst["tgt"], "--map", broken,
               "--out", tmp_path / "o") == 2


def test_exit_parse_on_manifest_without_argv(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"command": "synth"}))
    assert run("replay", m) == 2


def test_exit_config_on_bad_preprocess(inst, tmp_path):
    assert run("translate", inst["src"], inst["tgt"], "--map", inst["map"],
               "--out", tmp_path / "o", "--preprocess", "whiten") == 3


def test_exit_config_on_zero_threads(inst, tmp_path):
    assert run("--threads", 0, "synth", "--n", 5, "--d", 2,
               "--out", tmp_path / "x") == 3


def test_exit_config_on_bad_env_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("WPROC_THREADS", "many")
    assert run("synth", "--n", 5, "--d", 2, "--out", tmp_path / "x") == 3


def test_exit_config_on_supervised_loss_csv(inst, tmp_path, capsys):
    # A supervised fit has no loss history, so the CSV would be dropped.
    out, csv = tmp_path / "o", tmp_path / "loss.csv"
    assert run("align", inst["src"], inst["tgt"], "--out", out,
               "--supervised", inst["lex"], "--loss-csv", csv) == 3
    err = capsys.readouterr().err
    assert "--loss-csv" in err and "--supervised" in err
    assert not out.exists() and not csv.exists()


def test_exit_config_on_bad_batch(inst, tmp_path):
    assert run("align", inst["src"], inst["tgt"], "--out", tmp_path / "o",
               "--batch-size", 1) == 3


@pytest.mark.parametrize("argv", [
    pytest.param(("translate", *PAIR, "--map", "{map}", "--max-queries", -5),
                 id="max-queries-negative"),
    pytest.param(("translate", *PAIR, "--map", "{map}", "--max-queries", 0,
                  "--retrieval", "nn"), id="max-queries-zero"),
    pytest.param(("bench-batch-size", "--n", 40, "--d", 3, "--seeds", 0,
                  "--sizes", "8", "--iters", 2), id="seeds"),
    pytest.param(("eval", *PAIR, "--map", "{map}", "--lexicon", "{lex}",
                  "--ks", "1,x"), id="ks"),
    pytest.param(("bench-batch-size", "--n", 40, "--d", 3, "--sizes", "10,x",
                  "--iters", 2), id="sizes"),
])
def test_exit_config_on_bad_count_or_list_flag(inst, tmp_path, argv):
    out = tmp_path / "o"
    assert main([str(a).format(**inst) for a in argv] + ["--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    pytest.param(("init", "--fw-iters", 0), "--fw-iters", id="init-fw-iters"),
    pytest.param(("init", "--fw-gap-tol", 0), "--fw-gap-tol", id="init-fw-gap-tol"),
    pytest.param(("init", "--fw-size", 0), "--fw-size", id="init-fw-size"),
    pytest.param(("align", "--iters", 0), "--iters", id="align-iters"),
    pytest.param(("align", "--batch-size", 1), "--batch-size", id="align-batch-size"),
    pytest.param(("align", "--fw-iters", 0), "--fw-iters", id="align-convex-fw-iters"),
])
def test_bad_fw_or_align_flag_fails_before_the_inputs_load(tmp_path, capsys, argv,
                                                          flag):
    # The input files do not exist, so a check that waits for them to
    # load exits 6 on the missing file instead of 3 on the flag.
    command, *flags = argv
    out = tmp_path / "o"
    assert main([command, str(tmp_path / "none.src.vec"),
                 str(tmp_path / "none.tgt.vec"), *map(str, flags),
                 "--out", str(out)]) == 3
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("iters, done, status", [
    (40, 26, "gap_tol met"),
    (5, 5, "stopped at the iteration cap"),
])
def test_init_reports_whether_fw_met_gap_tol(inst, tmp_path, capsys, iters,
                                            done, status):
    # The noise-free 50-row instance meets the default gap_tol after 26
    # iterations, so a cap of 5 stops it first.
    assert run("init", inst["src"], inst["tgt"], "--out", tmp_path / "q0.map",
               "--fw-size", 50, "--fw-iters", iters) == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith(f", {status})")
    assert int(line.split("fw iterations ")[1].split(",")[0]) == done


def test_exit_numeric_on_degenerate_fit(tmp_path):
    # Three 5-dimensional rows cannot pin an orthogonal map; the
    # underdetermined fit inside init degenerates.
    vec = tmp_path / "thin.vec"
    with open(vec, "w", encoding="utf-8") as fh:
        fh.write("3 5\n")
        fh.write("a 1 0 0 0.5 0\n")
        fh.write("b 0 1 0 0 0.5\n")
        fh.write("c 0 0 1 0.25 0\n")
    with pytest.warns(UserWarning):
        code = run("init", vec, vec, "--out", tmp_path / "q0.map",
                   "--fw-size", 3, "--fw-iters", 10)
    assert code == 4


def test_exit_empty_on_disjoint_lexicon(inst, tmp_path):
    lex = tmp_path / "off.lex"
    lex.write_text("zzz qqq\n")
    assert run("eval", inst["src"], inst["tgt"], "--map", inst["map"],
               "--lexicon", lex, "--out", tmp_path / "r.json") == 5
    assert run("align", inst["src"], inst["tgt"], "--out", tmp_path / "o",
               "--supervised", lex) == 5
    # A command that raises leaves no manifest behind.
    assert not (tmp_path / "r.json.manifest.json").exists()
    assert not (tmp_path / "o.manifest.json").exists()


def test_exit_io_on_missing_file(tmp_path):
    assert run("translate", tmp_path / "absent.vec", tmp_path / "absent.vec",
               "--map", "m", "--out", tmp_path / "o") == 6


def test_eval_counts_oov(inst, tmp_path):
    lex = tmp_path / "partial.lex"
    gold = read_lex(inst["lex"])
    with open(lex, "w", encoding="utf-8") as fh:
        for a, b in gold[:12]:
            fh.write(f"{a} {b}\n")
        fh.write("unknown_word t0000\n")
    report = tmp_path / "r.json"
    assert run("eval", inst["src"], inst["tgt"], "--map", inst["map"],
               "--lexicon", lex, "--out", report, "--ks", "1") == 0
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["n_queries"] == 12
    assert doc["oov_skipped"] == 1

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import labelcover as lc
from labelcover import formats
from labelcover.cli import BENCH_ALGOS, _WORDS, _cap, _parse_args, _parser, main

from conftest import FIXTURES, SRC, fixture_text

TINY1 = str(FIXTURES / "tiny1.lc")
TINY1_ASSIGN = str(FIXTURES / "tiny1.assign")
SMOOTH1 = str(FIXTURES / "smooth1.lc")
GRID = str(FIXTURES / "grid4x4_seed7.lc")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_planted(capsys):
    code, out, _ = run(capsys, "verify", TINY1, TINY1_ASSIGN)
    assert code == 0
    assert out.strip() == "satisfied = 6 / 6"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", TINY1, TINY1_ASSIGN, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] == 6
    assert payload["satisfies_all"] is True


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", TINY1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_max"] == 6
    assert payload["p_bar_max"] == "11/6"


def test_approx_best_golden_record(capsys, tiny1):
    _, _, golden = tiny1
    code, out, _ = run(capsys, "approx", "best", TINY1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == golden["best_algorithm"]
    assert payload["satisfied"] == golden["best_value"]
    assert payload["tool"] == "labelcover"
    assert "elapsed" not in payload  # reproducible by default
    assert set(payload["breakdown"]) == {
        "one-neighbor", "greedy", "kyn", "kynn", "dnc",
    }


def test_solve_exact_and_dp_agree(capsys):
    code, out1, _ = run(capsys, "solve", "exact", TINY1, "--json")
    assert code == 0
    code, out2, _ = run(capsys, "solve", "dp", TINY1, "--json")
    assert code == 0
    assert json.loads(out1)["satisfied"] == json.loads(out2)["satisfied"] == 6


def test_ptas_emits_ratio_guarantee(capsys, tmp_path):
    code, _, _ = run(
        capsys, "gen", "grid", "--rows", "3", "--cols", "3", "--ka", "3",
        "--kb", "2", "--seed", "4", "--out", str(tmp_path / "g.lc"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "ptas", str(tmp_path / "g.lc"), "--eps", "1/2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["guarantee_ratio_of_opt"] == "2/3"
    assert payload["breakdown"]["h"] == 3


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.lc"
    bad.write_text("labelcover v1\n1 1 2 2 1\n0 0 0\n")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 2
    assert "parse error" in err


def test_semantic_parse_error_names_edge_line(capsys, tmp_path):
    bad = tmp_path / "bad.lc"
    bad.write_text("labelcover v1\n1 1 2 2 1\n0 5 0 1\n")
    code, out, err = run(capsys, "stats", str(bad))
    assert code == 2
    assert out == ""
    assert err == (
        "parse error: line 3: invalid instance: "
        "edge 0: endpoint (0, 5) out of range\n"
    )


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "labelcover", "stats", TINY1, "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["edges"] == 6


def test_input_is_read_as_utf8_under_the_c_locale(tmp_path):
    """A non-ASCII comment reads the same whatever the locale's encoding."""
    path = tmp_path / "cafe.lc"
    path.write_bytes(("# caf\u00e9\n" + fixture_text("tiny1.lc")).encode("utf-8"))
    digests = []
    for extra in ({}, {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}):
        env = {**os.environ, "PYTHONPATH": str(SRC), **extra}
        proc = subprocess.run(
            [sys.executable, "-m", "labelcover", "stats", str(path), "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout)["instance_digest"])
    want = hashlib.sha256(fixture_text("tiny1.lc").encode()).hexdigest()
    assert digests == [want, want]


def test_json_paths_are_the_same_bytes_under_the_c_locale(tmp_path):
    """A non-ASCII path prints as its UTF-8 text whatever the locale."""
    corpus = tmp_path / "café"
    corpus.mkdir()
    path = corpus / "café.lc"
    path.write_text(fixture_text("tiny1.lc"), encoding="utf-8")
    outputs = []
    for extra in ({"LC_ALL": "C.UTF-8"},
                  {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}):
        env = {**os.environ, "PYTHONPATH": str(SRC), **extra}
        out = b""
        for argv in (["stats", str(path), "--json"], ["bench", str(corpus)]):
            proc = subprocess.run(
                [sys.executable, "-m", "labelcover", *argv],
                capture_output=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            out += proc.stdout
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].splitlines()[0])["instance"] == str(path)
    assert json.loads(outputs[0].splitlines()[1])["instance"] == str(path)


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "stats", "/nonexistent/file.lc")
    assert code == 2


def test_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "big.lc"
    game, _ = lc.gen_random_satisfiable(12, 6, 4, 2, 2, seed=1)
    path.write_text(formats.emit_labelcover(game))
    code, _, err = run(capsys, "solve", "exact", str(path), "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_gen_random_deterministic_per_seed(capsys):
    args = ["gen", "random", "--na", "5", "--nb", "5", "--ka", "3",
            "--kb", "2", "--degree", "2", "--seed", "9"]
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2
    code, out3, _ = run(capsys, "gen", "random", "--na", "5", "--nb", "5",
                        "--ka", "3", "--kb", "2", "--degree", "2", "--seed", "10")
    assert out3 != out1


def test_unseeded_commands_byte_reproducible(capsys):
    for args in (
        ["stats", TINY1, "--json"],
        ["approx", "best", TINY1, "--json"],
        ["verify", TINY1, TINY1_ASSIGN, "--json"],
        ["smooth", "measure", TINY1, "--json"],
    ):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2, args


def test_smooth_exact_cli(capsys):
    path = str(FIXTURES / "smooth1.lc")
    code, out, _ = run(
        capsys, "smooth", "exact", path, "--mu", "1/12", "--seed", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True


def test_reduce_3col_and_extract(capsys, tmp_path):
    src = tmp_path / "k3.colgraph"
    src.write_text("colgraph v1\n3 3 1\n0 1\n0 2\n1 2\n")
    game_path = tmp_path / "k3.lc"
    code, _, _ = run(capsys, "reduce", "3col", str(src), "--out", str(game_path))
    assert code == 0
    game = formats.parse_labelcover(game_path.read_text())
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    assign_path = tmp_path / "k3.assign"
    assign_path.write_text(formats.emit_assignment(phi))
    code, out, _ = run(
        capsys, "reduce", "3col", str(src), "--extract", str(assign_path),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] is True


def test_reduce_tiling_and_extract(capsys, tmp_path):
    src = tmp_path / "t.tiling"
    tiling = lc.gen_matrix_tiling(2, 2, 0.5, seed=3, solvable=True)
    src.write_text(formats.emit_matrix_tiling(tiling))
    game_path = tmp_path / "t.lc"
    code, _, _ = run(capsys, "reduce", "tiling", str(src), "--out", str(game_path))
    assert code == 0
    game = formats.parse_labelcover(game_path.read_text())
    phi, val = lc.brute_force_opt(game)
    assert val == game.edge_count
    assign_path = tmp_path / "t.assign"
    assign_path.write_text(formats.emit_assignment(phi))
    code, out, _ = run(
        capsys, "reduce", "tiling", str(src), "--extract", str(assign_path),
        "--json",
    )
    payload = json.loads(out)
    assert payload["chosen"] == 4
    assert payload["violations"] == []


@pytest.mark.parametrize("kind, text", [
    ("3col", "colgraph v1\n3 3 1\n0 1\n0 2\n1 2\n"),
    ("tiling", formats.emit_matrix_tiling(
        lc.gen_matrix_tiling(2, 2, 0.5, seed=3, solvable=True))),
], ids=["3col", "tiling"])
def test_reduce_extract_misshapen_assignment_exits_one_line(capsys, tmp_path, kind, text):
    src = tmp_path / "source"
    src.write_text(text)
    assign_path = tmp_path / "bad.assign"
    game = formats.parse_labelcover(run(capsys, "reduce", kind, str(src))[1])
    a, b = (0,) * game.a_count, (0,) * game.b_count
    for phi in (lc.Assignment(a[1:], b), lc.Assignment((game.sigma_a, *a[1:]), b)):
        assign_path.write_text(formats.emit_assignment(phi))
        code, out, err = run(
            capsys, "reduce", kind, str(src), "--extract", str(assign_path), "--json"
        )
        _assert_one_line_error(code, out, err)
    # a negative label is not a number of the grammar: a parse error
    assign_path.write_text(formats.emit_assignment(lc.Assignment((-1, *a[1:]), b)))
    code, out, err = run(
        capsys, "reduce", kind, str(src), "--extract", str(assign_path), "--json"
    )
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 2: expected nonnegative integers")


@pytest.mark.parametrize("kind, text", [
    ("3col", "colgraph v1\n3 3 1\n0 1\n0 2\n1 2\n"),
    ("tiling", formats.emit_matrix_tiling(
        lc.gen_matrix_tiling(2, 2, 0.5, seed=3, solvable=True))),
], ids=["3col", "tiling"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_reduce_extract_writes_to_out(capsys, tmp_path, kind, text, json_flag):
    src = tmp_path / "source"
    src.write_text(text)
    game = formats.parse_labelcover(run(capsys, "reduce", kind, str(src))[1])
    assign_path = tmp_path / "zero.assign"
    assign_path.write_text(formats.emit_assignment(
        lc.Assignment((0,) * game.a_count, (0,) * game.b_count)
    ))
    argv = ("reduce", kind, str(src), "--extract", str(assign_path), *json_flag)
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed
    out_path = tmp_path / "extraction.out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == printed


@pytest.mark.parametrize("kind, text", [
    ("3col", "colgraph v1\n3 3 1\n0 1\n0 2\n1 2\n"),
    ("tiling", formats.emit_matrix_tiling(
        lc.gen_matrix_tiling(2, 2, 0.5, seed=3, solvable=True))),
], ids=["3col", "tiling"])
def test_reduce_json_without_extract_is_a_usage_error(capsys, tmp_path, kind, text):
    src = tmp_path / "source"
    src.write_text(text)
    out_path = tmp_path / "game.lc"
    for out in ((), ("--out", str(out_path))):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", kind, str(src), "--json", *out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert captured.err.endswith(
            f"labelcover reduce {kind}: error: "
            "argument --json: only allowed with argument --extract\n"
        )


@pytest.mark.parametrize("words, flag", [
    (("solve", "exact", TINY1), "--budget"),
    (("smooth", "exact", SMOOTH1), "--enum-cap"),
    (("smooth", "approx", SMOOTH1), "--enum-cap"),
], ids=["solve-exact", "smooth-exact", "smooth-approx"])
def test_a_negative_cap_is_a_usage_error(capsys, words, flag):
    command = f"labelcover {words[0]} {words[1]}"
    for argv in ([flag, "-1"], [f"{flag}=-12"]):
        with pytest.raises(SystemExit) as exc:
            main([*words, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: {command} [-h] ")
        value = argv[-1].rpartition("=")[2]
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"{command}: error: argument {flag}: must be at least 0, got {value}"
        ]
    # a cap of 0 is valid: the command runs and exceeds it
    code, out, err = run(capsys, *words, flag, "0")
    assert (code, out) == (3, "") and err.startswith("budget exceeded: ")


def _variants(text):
    """The same game as a canonical text and as four other texts."""
    header, rest = text.split("\n", 1)
    return {
        "canonical": text.encode(),
        "comments": ("# a game\n" + text.replace("\n", "\n# row\n", 2)).encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "tabs": (header + "\n" + rest.replace(" ", "\t")).encode(),
        "no-final-newline": text[:-1].encode(),
    }


def test_instance_digest_is_the_canonical_text_s_for_every_spelling(capsys, tmp_path):
    text = Path(TINY1).read_text()
    game = formats.parse_labelcover(text)
    want = hashlib.sha256(formats.emit_labelcover(game).encode()).hexdigest()
    for name, data in _variants(text).items():
        folder = tmp_path / name
        folder.mkdir()
        path = folder / "game.lc"
        path.write_bytes(data)
        # files are read with universal newlines, so CRLF reads as canonical
        read, bulk = formats._read_labelcover(path.read_text())
        assert read == game and bulk == (name in ("canonical", "crlf")), name
        for argv in (("stats", str(path), "--json"),
                     ("verify", str(path), TINY1_ASSIGN, "--json"),
                     ("approx", "best", str(path), "--json")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["instance_digest"] == want, (name, argv)
        code, out, _ = run(capsys, "bench", str(folder))
        runs = [json.loads(line) for line in out.splitlines()][:-1]
        assert code == 0 and len(runs) == len(BENCH_ALGOS)
        assert {rec["instance_digest"] for rec in runs} == {want}, name


def test_instance_digest_of_a_sparse_canonical_file_is_its_bytes_(capsys, tmp_path):
    """An index at or above the file's field count is still read in one
    pass, and the file is what emit writes, so its digest is its bytes'."""
    text = "labelcover v1\n100 100 1 1 1\n99 99 0\n"
    path = tmp_path / "game.lc"
    path.write_text(text)
    game, canonical = formats._read_labelcover(text)
    assert canonical and formats.emit_labelcover(game) == text
    code, out, _ = run(capsys, "stats", str(path), "--json")
    assert code == 0
    assert json.loads(out)["instance_digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_bench_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        game, _ = lc.gen_random_satisfiable(5, 5, 3, 2, 2, seed=seed)
        (corpus / f"i{seed}.lc").write_text(formats.emit_labelcover(game))
    out_file = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "bench", str(corpus), "--out", str(out_file))
    assert code == 0
    lines = [json.loads(x) for x in out_file.read_text().splitlines()]
    runs = [x for x in lines if x["record"] == "run"]
    summary = [x for x in lines if x["record"] == "summary"]
    assert len(runs) == 2 * 6  # one record per (instance, algorithm)
    assert len(summary) == 1
    assert summary[0]["instances"] == 2
    assert summary[0]["worst_quartic_ratio"]["best"] >= 0.25
    for rec in runs:
        assert rec["satisfied"] <= rec["edges"]
        game = formats.parse_labelcover(Path(rec["instance"]).read_text())
        direct = _direct_run(game, rec["algorithm"])
        assert rec["satisfied"] == direct.satisfied, rec
        assert rec["guarantee"] == str(direct.guarantee), rec



def test_bench_empty_out_writes_to_stdout_and_leaves_it_open(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "tiny1.lc").write_text(Path(TINY1).read_text())
    code, out, _ = run(capsys, "bench", str(corpus), "--out", "")
    assert code == 0 and not sys.stdout.closed
    assert out == run(capsys, "bench", str(corpus))[1]


def _direct_run(game, name):
    """What one bench record reports, from a direct call of its algorithm."""
    st = lc.compute_stats(game)
    cache = lc.compute_sigma_star(game, st)
    if name == "kyn":
        a0 = max(range(game.a_count), key=lambda a: (st.e_n[a], -a))
        return lc.know_your_neighbors(game, a0, cache.sigma_star[a0][0], st, cache)
    if name == "kynn":
        return lc.know_neighbors_neighbors(game, cache.h_star_argmax[0], st, cache)
    return {
        "one-neighbor": lambda: lc.satisfy_one_neighbor(game),
        "greedy": lambda: lc.greedy_assignment(game, st),
        "dnc": lambda: lc.divide_and_conquer(game, st, cache),
        "best": lambda: lc.best_of(game, st, cache),
    }[name]()


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_approx_anchor_out_of_range_exits_one_line(capsys, tmp_path):
    empty = tmp_path / "empty.lc"
    empty.write_text(formats.emit_labelcover(lc.build_game(0, 2, 2, 2, [], [])))
    a_count = formats.parse_labelcover(Path(TINY1).read_text()).a_count
    for algo in ("kyn", "kynn"):
        for a0 in (-1, a_count):
            code, out, err = run(capsys, "approx", algo, TINY1, "--a0", str(a0))
            _assert_one_line_error(code, out, err)
            assert f"a{a0} out of range" in err
        code, out, err = run(capsys, "approx", algo, str(empty))
        _assert_one_line_error(code, out, err)



UNIFORM = str(FIXTURES / "random_seed42_uniform.lc")


@pytest.mark.parametrize("argv, anchor", [
    (("kyn", TINY1), lambda st, cache: st.e_n.index(max(st.e_n))),
    (("kynn", TINY1), lambda st, cache: cache.h_star_argmax[0]),
    (("kynn", UNIFORM, "--uniform"), lambda st, cache: st.h.index(max(st.h))),
], ids=["kyn", "kynn", "kynn-uniform"])
def test_approx_default_anchor_prints_the_explicit_report(capsys, argv, anchor):
    game = formats.parse_labelcover(Path(argv[1]).read_text())
    st = lc.compute_stats(game)
    a0 = anchor(st, lc.compute_sigma_star(game, st))
    code, implicit, _ = run(capsys, "approx", *argv, "--json")
    assert code == 0
    code, explicit, _ = run(capsys, "approx", *argv, "--a0", str(a0), "--json")
    assert code == 0
    implicit, explicit = json.loads(implicit), json.loads(explicit)
    assert implicit.pop("command") != explicit.pop("command")
    assert implicit == explicit


_REPORT_LEAVES = [
    ("solve", "exact"),
    ("solve", "dp"),
    *(("approx", name) for name in BENCH_ALGOS),
    ("smooth", "approx"),
    ("ptas", "--eps", "1/2"),
]


@pytest.mark.parametrize("argv", _REPORT_LEAVES, ids=" ".join)
def test_report_satisfied_is_the_value_of_its_assignment(capsys, argv):
    argv = (*argv, TINY1)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    game = formats.parse_labelcover(Path(TINY1).read_text())
    labels = payload["assignment"]
    phi = lc.Assignment(tuple(labels["a_labels"]), tuple(labels["b_labels"]))
    assert payload["satisfied"] == lc.value(game, phi)
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert f"satisfied = {payload['satisfied']} / {game.edge_count}\n" in text


@pytest.mark.parametrize("argv", [("solve", "dp"), ("ptas", "--eps", "1/2")], ids=" ".join)
def test_star_with_2000_leaves_solves(capsys, tmp_path, argv):
    # min-fill once rescored the centre against every remaining leaf
    n = 2000
    game = lc.build_game(
        1, n, 2, 2, [(0, b) for b in range(n)], [(b % 2, b // 2 % 2) for b in range(n)]
    )
    path = tmp_path / "star.lc"
    path.write_text(formats.emit_labelcover(game))
    code, out, _ = run(capsys, *argv, str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    labels = payload["assignment"]
    phi = lc.Assignment(tuple(labels["a_labels"]), tuple(labels["b_labels"]))
    assert payload["satisfied"] == lc.value(game, phi) == n


def test_gen_smooth_empty_a_alphabet_exits_one_line(capsys):
    # gen smooth once ended in a randrange traceback here; gen random
    # reports the same parameters the same way
    for kind in ("smooth", "random"):
        extra = ("--mu", "1/2") if kind == "smooth" else ()
        code, out, err = run(capsys, "gen", kind, "--na", "4", "--nb", "7", "--ka", "0",
                             "--kb", "2", "--degree", "5", *extra)
        _assert_one_line_error(code, out, err)
        assert err == "error: alphabets must be nonempty\n"


def test_ptas_bad_parameters_exit_one_line(capsys, tmp_path):
    grid, _ = lc.gen_planar_grid(2, 3, 2, 2, seed=3)
    edgeless = lc.build_game(2, 2, 2, 2, [], [])
    for name, game in (("grid", grid), ("edgeless", edgeless)):
        path = tmp_path / f"{name}.lc"
        path.write_text(formats.emit_labelcover(game))
        for extra in (("--eps", "0"), ("--eps", "-1"),
                      ("--eps", "1/2", "--h-override", "0")):
            code, out, err = run(capsys, "ptas", str(path), *extra)
            _assert_one_line_error(code, out, err)


def test_solve_dp_with_td_file(capsys, tmp_path):
    game = formats.parse_labelcover(Path(TINY1).read_text())
    td = lc.heuristic_decomposition(game)
    td_path = tmp_path / "tiny1.td"
    td_path.write_text(formats.emit_td(td))
    code, out, _ = run(capsys, "solve", "dp", TINY1, "--td", str(td_path), "--json")
    assert code == 0
    assert json.loads(out)["satisfied"] == 6


def test_gen_smooth_cli_writes_plant(capsys, tmp_path):
    inst = tmp_path / "s.lc"
    plant = tmp_path / "s.assign"
    code, _, _ = run(
        capsys, "gen", "smooth", "--na", "2", "--nb", "6", "--ka", "2",
        "--kb", "3", "--degree", "6", "--mu", "1/2", "--seed", "5",
        "--out", str(inst), "--plant-out", str(plant),
    )
    assert code == 0
    game = formats.parse_labelcover(inst.read_text())
    phi = formats.parse_assignment(plant.read_text())
    assert lc.value(game, phi) == game.edge_count


def test_solve_dp_td_vertex_outside_game_exits_one_line(capsys, tmp_path):
    # tiny1 has 6 vertices (0..5); 6 is not in the game, and -1 is not a
    # number of the grammar
    td_path = tmp_path / "bad.td"
    td_path.write_text("td v1\n1 0\nbag 0 1 2 3 4 5 6\n")
    code, out, err = run(capsys, "solve", "dp", TINY1, "--td", str(td_path))
    _assert_one_line_error(code, out, err)
    assert "is not in the game" in err
    td_path.write_text("td v1\n1 0\nbag -1 0 1 2 3 4 5\n")
    code, out, err = run(capsys, "solve", "dp", TINY1, "--td", str(td_path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 3: expected nonnegative integers")


def test_trailing_content_exits_two(capsys, tmp_path):
    # the size line declares one edge; the two after it were once ignored
    graph = tmp_path / "g.col"
    graph.write_text("colgraph v1\n3 1 0\n0 1\n1 2\n0 2\n")
    code, out, err = run(capsys, "reduce", "3col", str(graph))
    assert code == 2
    assert out == ""
    assert err == "parse error: line 4: trailing content after the declared lines\n"
    assign = tmp_path / "g.assign"
    assign.write_text("assign v1\n1 1 1\n1 0 0\ngarbage here\n")
    code, out, err = run(capsys, "verify", TINY1, str(assign))
    assert (code, out) == (2, "")
    assert err == "parse error: line 4: trailing content after the declared lines\n"


def test_unreadable_input_exits_two(capsys, tmp_path):
    binary = tmp_path / "binary.lc"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (("stats", str(tmp_path)), ("solve", "dp", str(tmp_path)),
                 ("stats", str(binary)), ("bench", str(tmp_path / "missing")),
                 ("bench", TINY1), ("bench", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("cannot read input: ") and err.count("\n") == 1


def test_unwritable_output_exits_one(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "out")
    for argv in (("gen", "grid", "--rows", "2", "--cols", "2", "--ka", "2",
                  "--kb", "2", "--out", missing),
                 ("bench", str(FIXTURES), "--out", missing)):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("cannot write output: ") and err.count("\n") == 1


_CUT_SHORT = [(MemoryError, 1, "error: out of memory\n"), (KeyboardInterrupt, 130, "interrupted\n")]


@pytest.mark.parametrize("exc, code, err", _CUT_SHORT, ids=["memory", "interrupt"])
def test_a_command_cut_short_exits_one_line_and_leaves_no_output(
        capsys, monkeypatch, tmp_path, exc, code, err):
    def cut_short(*args, **kwargs):
        raise exc

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a.lc", "b.lc"):
        (corpus / name).write_text(fixture_text("tiny1.lc"))
    out, plant = tmp_path / "out", tmp_path / "plant"
    best_of = lc.approx.best_of
    calls = []

    def second_call_cut_short(*args):
        calls.append(args)
        return cut_short() if len(calls) > 1 else best_of(*args)

    # --out is written before --plant-out; bench writes --out record by record
    for callee, argv in (
        ((formats, "emit_assignment", cut_short),
         ("gen", "grid", "--rows", "2", "--cols", "2", "--ka", "2", "--kb", "2",
          "--out", str(out), "--plant-out", str(plant))),
        ((lc.approx, "best_of", second_call_cut_short),
         ("bench", str(corpus), "--out", str(out))),
        ((lc.reductions, "gen_random_satisfiable", cut_short),
         ("gen", "random", *_SIZES, "--out", str(out))),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(*callee)
            assert run(capsys, *argv) == (code, "", err)
        assert not out.exists() and not plant.exists()
    assert len(calls) == 2
    # an output file that was there before the command is not removed
    out.write_text("kept")
    monkeypatch.setattr(lc.reductions, "gen_random_satisfiable", cut_short)
    assert run(capsys, "gen", "random", *_SIZES, "--out", str(out)) == (code, "", err)
    assert out.read_text() == "kept"


def test_an_error_exit_removes_the_outputs_it_created(capsys, tmp_path):
    # bench writes tiny1's six run records before it reads the malformed
    # second file; the parse error takes them with it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.lc").write_text(fixture_text("tiny1.lc"))
    (corpus / "b.lc").write_text("labelcover v1\n1 1 2 2 1\n0 0 0\n")
    out = tmp_path / "out"
    argv = ("bench", str(corpus), "--out", str(out))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("parse error: line 3: ") and err.count("\n") == 1
    assert not out.exists()
    # an output file that was there before the command is not removed
    out.write_text("kept")
    assert run(capsys, *argv) == (code, stdout, err)
    assert [json.loads(x)["record"] for x in out.read_text().splitlines()] == ["run"] * 6


def test_smooth_parameters_out_of_range_exit_one_line(capsys):
    path = str(FIXTURES / "smooth1.lc")
    for argv in (("approx", path, "--mu", "-1"), ("exact", path, "--mu", "-1"),
                 ("exact", path, "--c1", "-4"), ("approx", path, "--mu", "3/2")):
        code, out, err = run(capsys, "smooth", *argv)
        _assert_one_line_error(code, out, err)


def test_gen_non_positive_dimensions_exit_one_line(capsys, tmp_path):
    out_path = tmp_path / "out.txt"
    for argv in (("3col", "--rows", "-1", "--cols", "2"),
                 ("3col", "--rows", "2", "--cols", "0"),
                 ("tiling", "--size", "3", "--coords", "0"),
                 ("tiling", "--size", "0", "--coords", "3")):
        code, out, err = run(capsys, "gen", *argv, "--out", str(out_path))
        _assert_one_line_error(code, out, err)
        assert not out_path.exists()


def test_gen_probability_outside_unit_interval_exits_one_line(capsys, tmp_path):
    out_path = tmp_path / "out.txt"
    for argv, msg in (
        (("3col", "--rows", "2", "--cols", "2", "--keep", "2"),
         "keep must be in [0, 1], got 2"),
        (("3col", "--rows", "2", "--cols", "2", "--keep=-1/2"),
         "keep must be in [0, 1], got -1/2"),
        (("tiling", "--size", "2", "--coords", "2", "--density", "-1"),
         "density must be in [0, 1], got -1"),
        (("tiling", "--size", "2", "--coords", "2", "--density", "3/2"),
         "density must be in [0, 1], got 3/2"),
    ):
        code, out, err = run(capsys, "gen", *argv, "--out", str(out_path))
        _assert_one_line_error(code, out, err)
        assert err == f"error: {msg}\n"
        assert not out_path.exists()


def test_gen_smooth_mu_outside_unit_interval_exits_one_line(capsys, tmp_path):
    out_path = tmp_path / "out.txt"
    code, out, err = run(capsys, "gen", "smooth", "--na", "4", "--nb", "4",
                         "--ka", "4", "--kb", "2", "--degree", "2", "--mu=-1",
                         "--out", str(out_path))
    _assert_one_line_error(code, out, err)
    assert err == "error: mu_target must be in [0, 1], got -1\n"
    assert not out_path.exists()


def test_cli_golden_help_and_usage_errors(capsys, monkeypatch):
    """--help, --version and usage errors keep their bytes (cli_golden.json).

    argparse wraps help to the terminal width, so COLUMNS is pinned. The
    list is replayed twice so that state left in the reused parser shows.
    """
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(fixture_text("cli_golden.json"))
    for _ in range(2):
        for case in cases:
            try:
                code = main(list(case["argv"]))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (
                case["code"], case["stdout"], case["stderr"]
            ), case["argv"]


_SIZES = ("--na", "2", "--nb", "2", "--ka", "2", "--kb", "2", "--degree", "1")


@pytest.mark.parametrize("argv", [
    ("ptas", TINY1, "--eps"),
    ("smooth", "exact", TINY1, "--mu"),
    ("smooth", "exact", TINY1, "--c1"),
    ("smooth", "approx", TINY1, "--mu"),
    ("gen", "smooth", *_SIZES, "--mu"),
    ("gen", "3col", "--rows", "2", "--cols", "2", "--keep"),
    ("gen", "tiling", "--size", "2", "--coords", "2", "--density"),
], ids=lambda argv: " ".join(
    a for a in (argv[0], argv[1], argv[-1]) if a.isalnum() or a.startswith("--")
))
def test_rational_flag_rejects_zero_denominator(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "1/0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].endswith(
        f": error: argument {argv[-1]}: invalid Fraction value: '1/0'"
    )


def _leaves(parser, path=()):
    """Every runnable command of the parser, as (argv prefix, parser)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for name, sub in action.choices.items()
                    for leaf in _leaves(sub, (*path, name))]
    return [(path, parser)]


# every option each leaf accepts (-h aside), in usage order
_LEAF_FLAGS = {
    ("gen", "random"): ("--na", "--nb", "--ka", "--kb", "--degree", "--uniform",
                        "--out", "--plant-out", "--seed"),
    ("gen", "smooth"): ("--na", "--nb", "--ka", "--kb", "--degree", "--mu",
                        "--out", "--plant-out", "--json", "--seed"),
    ("gen", "grid"): ("--rows", "--cols", "--ka", "--kb", "--out", "--plant-out",
                      "--seed"),
    ("gen", "3col"): ("--rows", "--cols", "--keep", "--out", "--seed"),
    ("gen", "tiling"): ("--size", "--coords", "--density", "--solvable", "--out",
                        "--seed"),
    ("stats",): ("--json",),
    ("solve", "exact"): ("--budget", "--json", "--timings"),
    ("solve", "dp"): ("--td", "--json", "--timings"),
    ("approx", "one-neighbor"): ("--json", "--timings"),
    ("approx", "greedy"): ("--json", "--timings"),
    ("approx", "kyn"): ("--a0", "--sigma", "--json", "--timings"),
    ("approx", "kynn"): ("--a0", "--uniform", "--json", "--timings"),
    ("approx", "dnc"): ("--uniform", "--json", "--timings"),
    ("approx", "best"): ("--json", "--timings"),
    ("smooth", "measure"): ("--json",),
    ("smooth", "exact"): ("--mu", "--c1", "--json", "--seed", "--enum-cap"),
    ("smooth", "approx"): ("--mu", "--json", "--enum-cap", "--timings"),
    ("ptas",): ("--eps", "--force-nonplanar", "--h-override", "--json", "--timings"),
    ("reduce", "3col"): ("--out", "--extract", "--json"),
    ("reduce", "tiling"): ("--out", "--extract", "--json"),
    ("verify",): ("--json",),
    ("bench",): ("--out", "--timings"),
}


def _shared_flags(path):
    """Flags that every leaf, or every approx leaf, once accepted."""
    common = ("--json", "--seed", "--enum-cap", "--timings")
    return common + (("--a0", "--sigma", "--uniform") if path[0] == "approx" else ())


def test_every_leaf_accepts_exactly_the_flags_it_reads():
    leaves = dict(_leaves(_parser()))
    accepted = {
        path: tuple(flag for action in leaf._actions
                    for flag in action.option_strings if flag not in ("-h", "--help"))
        for path, leaf in leaves.items()
    }
    assert accepted == _LEAF_FLAGS
    assert tuple(path[1] for path in leaves if path[0] == "approx") == BENCH_ALGOS
    pairs = [(path, flag) for path in leaves for flag in _shared_flags(path)]
    kept = [(path, flag) for path, flag in pairs if flag in _LEAF_FLAGS[path]]
    assert (len(pairs), len(kept)) == (106, 41)


def test_every_dropped_flag_is_a_usage_error(capsys):
    for path, leaf in _leaves(_parser()):
        argv = list(path)  # positionals and required options, so it parses
        for action in leaf._actions:
            if not action.option_strings:
                argv.append("1")
            elif action.required:
                argv += [action.option_strings[0], "1"]
        _parser().parse_args(argv)
        for flag in _shared_flags(path):
            if flag in _LEAF_FLAGS[path]:
                continue
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "0"])
            assert exc.value.code == 2, (path, flag)
            err = capsys.readouterr().err
            assert err.endswith(f": error: unrecognized arguments: {flag} 0\n")


def _every_flag(path, leaf):
    """An argv for a leaf that gives every flag it takes (-h aside)."""
    argv = list(path)
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            argv.append("x.lc")
        elif action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            value = {int: "1", _cap: "1", None: "y.lc"}.get(action.type, "1/2")
            argv += [action.option_strings[0], value]
    return argv


_EDGE_ARGVS = [
    ["stats", "--", "x.lc"],
    ["stats", "x.lc", "--", "y.lc"],
    ["smooth", "exact", "x.lc", "--js", "--mu", "1/12"],  # an abbreviation
    ["ptas", "x.lc", "--ep", "1/2", "--j"],
    ["smooth", "exact", "x.lc", "--seed", "1", "--seed", "2"],
    ["approx", "kyn", "x.lc", "--a0=1", "--a0", "2"],
    ["smooth", "exact", "-h"],
    ["stats", "x.lc", "--help"],
    ["stats", "x.lc", "--bogus"],
    ["stats", "x.lc", "y.lc"],
    ["smooth", "exact", "x.lc", "--version"],
    ["smooth", "approx", "x.lc", "--seed", "1"],
    ["stats", "x.lc", "--=1"],  # ambiguous at the top level, not at the leaf
    ["approx", "best", "x.lc", "--=", "--json"],
    ["stats", "x.lc", "--", "--=1"],
    ["smooth", "exact"],
    ["verify", "x.lc"],
    ["gen", "smooth", *_SIZES],
    ["smooth", "exact", "x.lc", "--mu", "1/0"],
    ["smooth", "exact", "x.lc", "--mu"],
    ["stats", "x.lc", "--json=1"],
    ["gen", "3col", "--rows", "2", "--cols", "2", "--keep", "-1/2"],
    ["--version", "stats", "x.lc"],
    ["smooth", "frobnicate", "x.lc"],
    ["-h"],
]


def _parse_outcome(capsys, parse, argv):
    """A parse's namespace, or its exit code, with what it printed."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def test_main_parses_every_argv_as_the_nested_parser_does(capsys, monkeypatch):
    """main hands argv straight to the command's own parser; it must end
    as the nested parse does: the same namespace, or the same exit code and
    bytes.  The argvs are the golden cases, every flag of every leaf, and
    argparse's edge cases."""
    monkeypatch.setenv("COLUMNS", "80")
    leaves = _leaves(_parser())
    assert _parser().leaves == dict(leaves)
    golden = [case["argv"] for case in json.loads(fixture_text("cli_golden.json"))]
    full = [_every_flag(path, leaf) for path, leaf in leaves]
    for argv in golden + full + _EDGE_ARGVS:
        want = _parse_outcome(capsys, _parser().parse_args, argv)
        assert _parse_outcome(capsys, _parse_args, argv) == want, argv
        # every leaf's full argv parses, so no leaf is compared on errors only
        assert isinstance(want[0], dict) or argv not in full, argv


def test_a_valid_command_is_parsed_once(capsys, monkeypatch):
    """Only the command's own parser reads a valid argv, not the routing
    levels above it."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for prog, argv in (
        ("labelcover smooth exact", ("smooth", "exact", SMOOTH1, "--json", "--mu",
                                     "1/12", "--c1", "4", "--seed", "0")),
        ("labelcover stats", ("stats", TINY1, "--json")),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and calls == [prog]


def test_a_valid_command_builds_only_its_own_branch(capsys, monkeypatch):
    """A valid argv builds the parsers on its command's path, which print
    the same help as the whole tree's."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _WORDS == set(_parser().leaves)
    for words in _WORDS:
        branch = _parser(words)
        assert list(branch.leaves) == [words]
        assert branch.leaves[words].format_help() == _parser().leaves[words].format_help()
    _parser.cache_clear()
    code, _, _ = run(capsys, "smooth", "exact", SMOOTH1, "--mu", "1/12")
    assert code == 0 and _parser.cache_info().currsize == 1


_TIMED = [
    ("solve", "exact", TINY1),
    ("solve", "dp", TINY1),
    ("approx", "kynn", TINY1),
    ("smooth", "approx", SMOOTH1, "--mu", "1/12"),
    ("ptas", GRID, "--eps", "1/2"),
]


def _timed_id(argv):
    """The command words and the fixture's file name, the same in any checkout."""
    i = next(i for i, word in enumerate(argv) if word in (TINY1, SMOOTH1, GRID))
    return " ".join([*argv[:i], Path(argv[i]).name])


@pytest.mark.parametrize("argv", _TIMED, ids=_timed_id)
def test_timings_flag_adds_elapsed_and_nothing_else(capsys, argv):
    code, text, _ = run(capsys, *argv)
    assert code == 0 and "elapsed" not in text
    code, timed, _ = run(capsys, *argv, "--timings")
    *lines, last = timed.splitlines()
    assert code == 0 and lines == text.splitlines()
    assert last.startswith("elapsed: ") and last.endswith("s")
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and "elapsed" not in payload
    code, out, _ = run(capsys, *argv, "--json", "--timings")
    timed = json.loads(out)
    assert code == 0 and timed.pop("elapsed") >= 0
    assert timed.pop("command") == [*argv, "--json", "--timings"]
    assert payload.pop("command") == [*argv, "--json"]
    assert timed == payload


def test_bench_timings_adds_elapsed_to_run_records(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "tiny1.lc").write_text(Path(TINY1).read_text())
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0 and "elapsed" not in out
    code, timed, _ = run(capsys, "bench", str(corpus), "--timings")
    assert code == 0
    records = [json.loads(line) for line in timed.splitlines()]
    plain = [json.loads(line) for line in out.splitlines()]
    for record in records[:-1]:
        assert record.pop("elapsed") >= 0
    assert records == plain


@pytest.mark.parametrize("method, extra", [
    ("exact", ("--mu", "1/12", "--seed", "0")),
    ("approx", ("--mu", "1/12")),
], ids=["exact", "approx"])
def test_smooth_enum_cap_exits_three(capsys, method, extra):
    code, _, _ = run(capsys, "smooth", method, SMOOTH1, *extra)
    assert code == 0
    code, out, err = run(capsys, "smooth", method, SMOOTH1, *extra, "--enum-cap", "1")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ") and err.endswith(" exceed cap 1\n")
    assert err.count("\n") == 1


def test_readme_command_lines_parse():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("labelcover ")]
    assert len(argvs) == len(lines)
    for argv in argvs:
        _parser().parse_args(argv)


_JUNK = st.sampled_from(["", "x", "1/", "nan", "--", "0.5", "-"])
_RATIONALS = st.sampled_from(["0", "-1", "1/0", "1/2", "3/2", "2", "-1/3"])


def _value(action, tmp_path, junk):
    """Strategy for one value of an argparse action, junk strings allowed."""
    if action.dest in ("out", "plant_out"):
        return st.just(str(tmp_path / action.dest))
    if action.choices:
        good = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        good = st.integers(-3, 6).map(str)
    elif action.type is not None:
        good = _RATIONALS
    else:  # an input path; its junk is a file that does not exist
        good = st.sampled_from([TINY1, TINY1_ASSIGN, str(tmp_path / "corpus")])
        if junk is not None:
            junk = st.just(str(tmp_path / "missing"))
    return good if junk is None else good | junk


@st.composite
def _argvs(draw, tmp_path):
    """An argv for a command drawn from the CLI's own parser."""
    prefix, leaf = draw(st.sampled_from(_leaves(_parser())))
    junk = _JUNK if draw(st.booleans()) else None
    argv, options = list(prefix), []
    for action in leaf._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if not action.option_strings:
            argv.append(draw(_value(action, tmp_path, junk)))
        elif action.required or draw(st.booleans()):
            flag = [action.option_strings[0]]
            if action.nargs != 0:
                flag.append(draw(_value(action, tmp_path, junk)))
            options.append(flag)
    for flag in draw(st.permutations(options)):
        argv.extend(flag)
    return argv


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_argv_fuzz_exits_cleanly(capsys, tmp_path, data):
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    (corpus / "tiny1.lc").write_text(Path(TINY1).read_text())
    argv = data.draw(_argvs(tmp_path))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help or a usage error
        capsys.readouterr()
        assert exc.code in (0, 2), argv
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)

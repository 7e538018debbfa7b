import argparse
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import monograd
from monograd import cli, verify
from monograd.caps import Caps, default_caps
from monograd.cli import run_cli
from monograd.errors import (CapsFormatError, DomainError,
                             ExponentOverflowError)
from monograd.gradient import gradient
from monograd.ioformats import (ideal_to_json, parse_generators,
                                parse_graph, parse_ideal,
                                parse_monomial_string, serialize_ideal)
from monograd.monomials import MonomialIdeal
from monograd.verify import Report, random_ideal


def I(n, *strs):
    return parse_ideal({"n": n, "gens": list(strs)})


def test_parse_monomial_string():
    assert parse_monomial_string("x1^2*x3", 3) == (2, 0, 1)
    assert parse_monomial_string("x2", 3) == (0, 1, 0)
    assert parse_monomial_string("x1^0", 2) == (0, 0)
    assert parse_monomial_string("1", 2) == (0, 0)
    with pytest.raises(DomainError):
        parse_monomial_string("x4", 3)
    with pytest.raises(DomainError):
        parse_monomial_string("y1", 2)


def test_parse_ideal_both_encodings():
    doc = {"n": 3, "gens": ["x1*x2", [0, 1, 1]]}
    assert parse_ideal(doc) == I(3, "x1*x2", "x2*x3")
    assert parse_ideal('{"n":2,"gens":[[2,0],[1,1]]}') == \
        I(2, "x1^2", "x1*x2")
    with pytest.raises(DomainError):
        parse_ideal({"n": 2, "gens": [[1, 2, 3]]})
    with pytest.raises(DomainError):
        parse_ideal({"n": 2, "gens": [[-1, 0]]})


def test_parse_checks_each_exponent_once(ideal_file, capsys):
    # exponents are checked while parsing, the bound included, and the
    # ideal is built from the checked monomials; the errors are those of
    # the validating constructor's path, in the same order
    non_integer = "negative or non-integer exponent in "
    bound = "exponent exceeds bound 2147483647"
    cases = [([[True, 0]], DomainError, non_integer + "[True, 0]"),
             ([[1, False]], DomainError, non_integer + "[1, False]"),
             ([[1, 1], [-1, 0]], DomainError, non_integer + "[-1, 0]"),
             ([[1.0, 0]], DomainError, non_integer + "[1.0, 0]"),
             ([[2**31, 0]], ExponentOverflowError, bound),
             (["x1^2147483647*x1"], ExponentOverflowError, bound),
             ([[2**31, 0], [True, 0]], DomainError, non_integer + "[True, 0]"),
             ([[2**31, 0], [1, 2, 3]], DomainError,
              "exponent list [1, 2, 3] has length 3, expected 2"),
             ([[1]], DomainError, "exponent list [1] has length 1, expected 2")]
    for gens, kind, text in cases:
        doc = {"n": 2, "gens": gens}
        with pytest.raises(kind) as info:
            parse_ideal(doc)
        assert type(info.value) is kind and str(info.value) == text, gens
        capsys.readouterr()
        assert run_cli(["stats", ideal_file(doc)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n", gens
    top = parse_ideal({"n": 2, "gens": [[2**31 - 1, 0]]})
    assert top.gens == ((2**31 - 1, 0),) and top._degs == (2**31 - 1,)
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(0, 5)
        gens = [[rng.randint(0, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 8))]
        doc = {"n": n, "gens": gens + [g for g in gens if rng.random() < .3]}
        got, want = parse_ideal(doc), MonomialIdeal(n, gens)
        assert (got.gens, got._degs, got._masks) == \
            (want.gens, want._degs, want._masks), doc


def test_parse_without_minimalization():
    n, gens = parse_generators({"n": 2, "gens": ["x1", "x1^2"]})
    assert len(gens) == 2


def test_round_trip_random():
    rng = random.Random(314)
    for _ in range(50):
        n = rng.randint(2, 5)
        J = random_ideal(n, 1, 4, rng.randint(1, 5), rng=rng)
        assert parse_ideal(serialize_ideal(J)) == J
        assert parse_ideal(json.loads(ideal_to_json(J))) == J


def test_library_built_ideals_round_trip_through_json():
    from monograd.graphs import SimpleGraph, edge_ideal
    from monograd.monomials import veronese_type

    rng = random.Random(2718)
    built = []
    for _ in range(40):
        n = rng.randint(2, 5)
        A = random_ideal(n, 1, 3, rng.randint(1, 4), rng=rng)
        B = random_ideal(n, 0, 2, rng.randint(1, 3), rng=rng)
        built += [A + B, A * B, A ** 2, gradient(A), A.colon_variable(1),
                  A.degree_component(A.omega + 1)]
    built += [MonomialIdeal.zero(3), MonomialIdeal.unit(2),
              MonomialIdeal.maximal(0), veronese_type(3, (2, 1, 2), 3),
              edge_ideal(SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])) ** 2]
    for J in built:
        text = ideal_to_json(J)
        assert "true" not in text and "false" not in text, text
        assert parse_ideal(text) == J, J
    # bools are not exponents, so such an ideal is never built
    with pytest.raises(DomainError):
        MonomialIdeal(2, [(True, 1)])


def test_graph_round_trip():
    # parse_graph sorts each edge and drops repeats; edge_pairs lists the
    # edges in order, and they parse back to the same graph
    G = parse_graph({"n": 4, "edges": [[3, 4], [2, 1], [1, 2]]})
    assert (G.n, G.edge_pairs()) == (4, [(1, 2), (3, 4)])
    assert parse_graph({"n": G.n, "edges": G.edge_pairs()}) == G
    with pytest.raises(DomainError):
        parse_graph({"n": 2, "edges": [[1, 3]]})


@pytest.fixture
def ideal_file(tmp_path):
    def write(doc, name="ideal.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def test_cli_stats_and_grad(ideal_file, capsys):
    f = ideal_file({"n": 3, "gens": ["x1*x2*x3"]})
    assert run_cli(["stats", f]) == 0
    assert run_cli(["grad", f, "--order", "2", "--json"]) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(out) == {"n": 3, "gens": [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]}


def test_cli_reg_and_betti(ideal_file, capsys):
    f = ideal_file({"n": 4, "gens": ["x1*x2", "x1*x3^3", "x2*x4^3"]})
    assert run_cli(["reg", f]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run_cli(["betti", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regularity"] == 4


def test_cli_check_exit_codes(ideal_file):
    good = ideal_file({"n": 3, "gens": ["x1*x2", "x1*x3"]})
    bad = ideal_file({"n": 4, "gens": ["x1*x2", "x3*x4"]}, "bad.json")
    assert run_cli(["check", "linear-resolution", good]) == 0
    assert run_cli(["check", "linear-resolution", bad]) == 1
    assert run_cli(["check", "no-such-property", good]) == 2
    assert run_cli(["reg", "/nonexistent.json"]) == 2


def test_cli_family_and_graph(tmp_path, capsys):
    assert run_cli(["family", "thm22", "--a", "-1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4 and len(doc["gens"]) == 3
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    assert run_cli(["graph", "cedge", str(gf), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gens"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_cli_kk(capsys):
    assert run_cli(["kk", "shadow", "--a", "1107", "--d", "17", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shadow"] == doc["oracle"] == 4817
    assert run_cli(["kk", "rep", "--a", "5", "--d", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [[3, 2], [2, 1]]


def test_cli_kk_large_a_answers_at_once(capsys):
    # each a_i costs O(log a_i) binomials, so huge a answer at once
    assert run_cli(["kk", "rep", "--a", "300000000", "--d", "1",
                    "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [[300000000, 1]]
    assert run_cli(["kk", "rep", "--a", str(10**40), "--d", "3",
                    "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert [low for _, low in terms] == [3, 2, 1]
    assert sum(comb(top, low) for top, low in terms) == 10**40
    assert comb(terms[0][0] + 1, 3) > 10**40
    # the greedy bound answers; the colex oracle then exits at its cap
    assert run_cli(["kk", "shadow", "--a", str(10**12), "--d", "2"]) == 2
    assert "colex-enum" in capsys.readouterr().err


def test_cli_verify(capsys):
    assert run_cli(["verify", "kk-remark", "--seed", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    # --json without --seed is a usage error for randomized output
    assert run_cli(["verify", "kk-remark", "--json"]) == 2


def test_cli_verify_ids_are_the_suites():
    # the parser takes its choices from a module that loads no engine
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    ids = next(a for a in sub.choices["verify"]._actions if a.dest == "id")
    assert tuple(ids.choices) == tuple(sorted(verify._DISPATCH))
    assert monograd.VERIFY_IDS == verify.VERIFY_IDS == tuple(ids.choices)


@pytest.mark.parametrize("argv", [
    ["thm4.3", "--param", "n=abc"],
    ["thm2.2", "--param", "a=1.5"],
    ["thm5.1", "--param", "samples=x"],
    ["prop2.1", "--param", "samples=-3"],
    ["cor2.4", "--param", "samples=-1"],
    ["thm3.1", "--param", "samples=-1"],
    ["lem3.2", "--param", "samples=-1"],
    ["prop3.3", "--param", "samples=-1"],
    ["thm5.1", "--param", "samples=-1"],
    ["thm5.1", "--param", "n=2", "--param", "d=2"],
    ["thm6.1", "--param", "k=-1"],
    ["thm6.1", "--param", "k=0"],
    ["thm2.2", "--param", "a=" + "9" * 5000],  # past int()'s digit limit
    # a key the suite does not read, or half of thm5.1's (n, d) pair,
    # would otherwise run and report parameters that were not used
    ["thm4.3", "--param", "N=5", "--seed", "0", "--json"],
    ["kk-remark", "--param", "samples=2"],
    ["thm5.1", "--param", "n=10"],
    ["thm5.1", "--param", "d=3", "--param", "samples=1"],
])
def test_cli_verify_bad_param(argv, capsys):
    assert run_cli(["verify", *argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""
    if argv[0] == "thm6.1":  # one check, one message, for every bad k
        assert err[0] == f"error: k must be >= 1, got {argv[2][2:]}"


def test_cli_malformed_input(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_cli(["reg", str(p)]) == 2
    p2 = tmp_path / "neg.json"
    p2.write_text(json.dumps({"n": 2, "gens": [[-1, 0]]}))
    assert run_cli(["reg", str(p2)]) == 2
    # malformed document shapes and an exponent above 2^31 - 1: exit 2
    # with one error line, no traceback
    bad = [("reg", {"n": 2, "gens": 5}),
           ("reg", {"n": 2, "gens": "x1"}),
           ("reg", {"n": 2, "gens": [5]}),
           ("reg", {"n": 2, "gens": [None]}),
           ("reg", {"n": True, "gens": []}),
           ("reg", {"n": 2, "gens": [[True, 0]]}),
           ("reg", {"n": 2, "gens": [[1, False]]}),
           ("reg", {"n": 2, "gens": [[3000000000, 0]]}),
           ("graph", {"n": 3, "edges": 5}),
           ("graph", {"n": 3, "edges": [1]}),
           ("graph", {"n": 3, "edges": [[1, 2, 3]]}),
           ("graph", {"n": 3, "edges": [["1", "2"]]}),
           ("graph", {"n": True, "edges": []})]
    capsys.readouterr()
    for k, (command, doc) in enumerate(bad):
        f = tmp_path / f"bad{k}.json"
        f.write_text(json.dumps(doc))
        argv = ["reg", str(f)] if command == "reg" else ["graph", "edge", str(f)]
        assert run_cli(argv) == 2, doc
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), doc
    # files the JSON decoder or int() cannot take: a 5,000-digit integer,
    # a 5,000-digit exponent or variable index, arrays nested 100,000 deep,
    # text that is not UTF-8, and a JSON string holding text that is not JSON
    digits, deep = "9" * 5000, "[" * 100000 + "]" * 100000
    exponent, index = (json.dumps({"n": 2, "gens": [g]}).encode()
                       for g in (f"x1^{digits}", f"x{digits}"))
    raw = [(["stats"], f'{{"n": 2, "gens": [[{digits}, 0]]}}'.encode()),
           (["stats"], exponent),
           (["stats"], index),
           (["stats", "--no-minimalize"], exponent),
           (["stats"], deep.encode()),
           (["stats", "--no-minimalize"], deep.encode()),
           (["graph", "edge"], deep.encode()),
           (["stats"], b'{"n": 1, "gens": ["x1"], "\xff": 0}'),
           (["stats"], b'"{not json"'),
           (["stats", "--no-minimalize"], b'"{not json"'),
           (["graph", "edge"], b'"{not json"')]
    for k, (command, content) in enumerate(raw):
        f = tmp_path / f"raw{k}.json"
        f.write_bytes(content)
        assert run_cli([*command, str(f)]) == 2, command
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), command
        assert "set_int_max_str_digits" not in err[0], command
        assert captured.out == "", command


@pytest.mark.parametrize("setting", ["no-such-cap=5", "lq-generators=abc",
                                     "lq-generators=-1", "nonface-unions=-1",
                                     "component-enum=0,colex-enum=-7"])
def test_cli_malformed_caps_setting(ideal_file, monkeypatch, capsys, setting):
    f = ideal_file({"n": 2, "gens": [[1, 1]]})
    monkeypatch.setenv("MONOGRAD_CAPS", setting)
    assert run_cli(["reg", f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if "=-" in setting:
        assert "nonnegative" in err[0]


def test_default_caps_share_one_instance_and_read_the_variable(monkeypatch):
    monkeypatch.delenv("MONOGRAD_CAPS", raising=False)
    assert default_caps() is default_caps()
    assert default_caps() == Caps()
    monkeypatch.setenv("MONOGRAD_CAPS", "lq-generators=7")
    assert default_caps() == Caps(lq_generators=7)
    monkeypatch.delenv("MONOGRAD_CAPS")
    assert default_caps() == Caps()


def test_caps_setting_overrides_the_defaults_it_names(monkeypatch):
    monkeypatch.setenv("MONOGRAD_CAPS", " lq-generators=7 , nonface-unions=0,")
    caps = default_caps()
    assert caps == Caps(lq_generators=7, nonface_unions=0)
    assert caps.component_enum == Caps().component_enum == 10**6
    for setting in ("lq_generators=7", "lq-generators=7,depth=2"):
        monkeypatch.setenv("MONOGRAD_CAPS", setting)
        with pytest.raises(CapsFormatError, match="unknown MONOGRAD_CAPS key"):
            default_caps()


def test_cli_zero_caps_are_valid(ideal_file, monkeypatch, capsys):
    # 0 is a cap, not a malformed setting: the certificate and the walk
    # step aside and reg answers by Koszul, while a search that needs
    # generators reports the cap it hit
    f = ideal_file({"n": 2, "gens": [[1, 1], [2, 0]]})
    monkeypatch.setenv("MONOGRAD_CAPS", "lq-generators=0,nonface-unions=0")
    assert run_cli(["reg", f]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["check", "linear-quotients", f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "lq-generators" in err[0] and "limit 0" in err[0]


def test_cli_nonface_unions_cap(ideal_file, monkeypatch, capsys):
    # two disjoint minimal nonfaces have four unions, the empty one included
    f = ideal_file({"n": 4, "gens": ["x1*x2", "x3*x4"]})
    monkeypatch.setenv("MONOGRAD_CAPS", "nonface-unions=3")
    assert run_cli(["betti", f, "--engine", "hochster"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "nonface-unions" in err[0]
    monkeypatch.setenv("MONOGRAD_CAPS", "nonface-unions=4")
    assert run_cli(["betti", f, "--engine", "hochster", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["regularity"] == 3


def test_cli_betti_high_exponents(ideal_file, capsys):
    # 60 polarized variables, past the polarized-vars cap; the lcm lattice
    # has four elements
    f = ideal_file({"n": 2, "gens": [[30, 0], [0, 30]]})
    assert run_cli(["betti", f, "--engine", "hochster", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == "hochster"
    assert doc["entries"] == [[0, 30, 2], [1, 60, 1]]


def test_cli_parser_is_built_once_and_reused_safely(ideal_file, monkeypatch,
                                                     capsys):
    f = ideal_file({"n": 3, "gens": ["x1*x2", "x2*x3"]})
    seen = []

    def fake_verify(theorem_id, params, seed=0):
        seen.append(params)
        return Report(theorem_id=theorem_id, parameters=params, seed=seed)

    # the handler imports verify_theorem when it runs
    monkeypatch.setattr("monograd.verify.verify_theorem", fake_verify)
    builds = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        # an appended --param must not leak into the next call's default
        assert run_cli(["verify", "thm4.3", "--param", "n=4"]) == 0
        assert run_cli(["verify", "thm4.3"]) == 0
        assert seen == [{"n": 4}, {}]
        capsys.readouterr()
        # --json before or after the subcommand, then plain text again
        assert run_cli(["--json", "reg", f]) == 0
        assert json.loads(capsys.readouterr().out) == {"regularity": 2}
        assert run_cli(["reg", f, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"regularity": 2}
        assert run_cli(["reg", f]) == 0
        assert capsys.readouterr().out == "2\n"
        # a usage error leaves the parser usable
        assert run_cli(["reg"]) == 2
        assert run_cli(["reg", f]) == 0
        assert run_cli(["--help"]) == 0
        assert "monograd" in capsys.readouterr().out
        built = len(builds)
        assert built > 1  # the main parser and its subcommand parsers
        for _ in range(20):
            assert run_cli(["reg", f]) == 0
        assert len(builds) == built
    finally:
        cli._build_parser.cache_clear()


def test_cli_overlap_family_size_is_capped(monkeypatch, capsys):
    # the family holds (d+1)*2d exponents: 84 for d = 6, 112 for d = 7
    monkeypatch.setenv("MONOGRAD_CAPS", "component-enum=100")
    assert run_cli(["family", "thm23", "--d", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 12
    for d in ("7", "10"):
        assert run_cli(["family", "thm23", "--d", d]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "component-enum" in err[0] and captured.out == ""


def _python_dash_m(*argv):
    """`python -m monograd argv` in a fresh interpreter, default caps."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("MONOGRAD_CAPS", None)
    return subprocess.run([sys.executable, "-m", "monograd", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(ideal_file, tmp_path):
    good = _python_dash_m("reg", ideal_file({"n": 3,
                                             "gens": ["x1*x2", "x2*x3"]}))
    assert (good.returncode, good.stdout, good.stderr) == (0, "2\n", "")
    bad_path = tmp_path / "broken.json"
    bad_path.write_text("{not json")
    bad = _python_dash_m("reg", str(bad_path))
    assert bad.returncode == 2 and bad.stdout == ""
    err = bad.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_prints_each_warning_as_one_line(tmp_path):
    graph = tmp_path / "edgeless.json"
    graph.write_text('{"n": 3, "edges": []}')
    for kind, message in (("edge", "edge ideal is the zero ideal"),
                          ("cedge", "complementary edge ideal is zero")):
        done = _python_dash_m("graph", kind, str(graph))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, '{"n": 3, "gens": []}\n', f"warning: edgeless graph: {message}\n")


@pytest.mark.parametrize("n, d, total", [(8, 3, 7423), (7, 4, 7937)])
def test_cli_powers_of_the_maximal_ideal_match_eliahou_kervaire(
        ideal_file, monkeypatch, capsys, n, d, total):
    # m^d is stable with mu = C(n+d-1, d), past the default lq-generators
    # cap; its stored order is a linear-quotients order, and
    # Eliahou-Kervaire gives beta_{i,d+i}(m^d) = C(n+d-1, d+i) C(d+i-1, i)
    monkeypatch.setenv("MONOGRAD_CAPS", "lq-generators=256")
    f = ideal_file(serialize_ideal(MonomialIdeal.maximal(n) ** d))
    assert run_cli(["betti", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == "linear-quotients"
    assert doc["entries"] == [[i, d + i, comb(n + d - 1, d + i)
                               * comb(d + i - 1, i)] for i in range(n)]
    assert sum(b for _, _, b in doc["entries"]) == total
    assert (doc["regularity"], doc["projective_dimension"]) == (d, n - 1)
    assert run_cli(["reg", f, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"regularity": d}


def test_cli_certificate_search_deeper_than_the_recursion_limit(
        ideal_file, monkeypatch, capsys):
    # the 4th power of an edge ideal on 7 vertices whose complement is
    # chordal: mu = 1470, and its stored order is no witness, so the
    # search backtracks along a path of 1470 generators
    edges = "12 13 15 17 23 24 25 26 27 34 35 36 37 46 56 67".split()
    J = I(7, *(f"x{e[0]}*x{e[1]}" for e in edges)) ** 4
    assert J.mu == 1470 and J.mu > sys.getrecursionlimit()
    monkeypatch.setenv("MONOGRAD_CAPS", "lq-generators=5000")
    f = ideal_file(serialize_ideal(J))
    assert run_cli(["reg", f]) == 0
    assert capsys.readouterr().out == "8\n"
    assert run_cli(["betti", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["engine"] == "linear-quotients"
    assert doc["entries"] == [[i, 8 + i, b] for i, b in enumerate(
        (1470, 7196, 14896, 16660, 10605, 3640, 526))]
    # the ranks of a free resolution of S/I alternate to zero
    assert 1 + sum((-1) ** (i + 1) * b for i, _, b in doc["entries"]) == 0
    assert (doc["regularity"], doc["projective_dimension"]) == (8, 6)


def test_cli_reg_walks_the_mu_1470_lattice_at_the_default_caps(ideal_file):
    # the input above, past the default lq-generators cap: reg walks its
    # 68,757 lattice elements, in a fresh interpreter with no cap override
    edges = "12 13 15 17 23 24 25 26 27 34 35 36 37 46 56 67".split()
    J = I(7, *(f"x{e[0]}*x{e[1]}" for e in edges)) ** 4
    assert J.mu == 1470 > default_caps().lq_generators
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("MONOGRAD_CAPS", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "monograd", "reg",
                           ideal_file(serialize_ideal(J))],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (0, "8\n", "")
    assert elapsed < 15, elapsed  # about 4 s on 2 CPUs


def test_cli_vertex_splitting_deeper_than_the_recursion_limit(ideal_file,
                                                              capsys):
    # each split of (x1^3000, x1^2999*x2) lowers the x1 exponent by one,
    # so its witness tree is about 3000 splits deep
    f = ideal_file({"n": 2, "gens": [[3000, 0], [2999, 1]]})
    assert run_cli(["check", "vertex-splittable", f]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("true\n", "")


def test_cli_betti_json_is_invariant_under_relabeling(ideal_file, capsys):
    # the whole document, engine included, must not depend on the names
    # of the variables: the certificate search starts from the stored
    # order, which a relabeling changes
    rng = random.Random(4242)
    engines = []
    for t in range(60):
        if t % 3 == 2:
            n = rng.randint(3, 5)
            J = random_ideal(n, 2, 3, rng.randint(3, 6), rng=rng)
        else:
            n = rng.randint(5, 8)
            J = random_ideal(n, 2, 4, rng.randint(3, 8), squarefree=True,
                             rng=rng)
            if t % 3 == 1:
                J = gradient(J)
        if J.is_unit:
            continue
        outs = set()
        for k in range(4):
            perm = rng.sample(range(n), n) if k else list(range(n))
            f = ideal_file({"n": n, "gens": [[u[p] for p in perm]
                                             for u in J.gens]})
            assert run_cli(["betti", f, "--json"]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1, (J, outs)
        engines.append(json.loads(outs.pop())["engine"])
    assert engines.count("linear-quotients") > 15
    assert engines.count("hochster") > 15

import json
import random

import pytest

from monograd.cli import run_cli
from monograd.errors import DomainError
from monograd.ioformats import (ideal_to_json, parse_generators,
                                parse_graph, parse_ideal,
                                parse_monomial_string, serialize_graph,
                                serialize_ideal)
from monograd.monomials import MonomialIdeal
from monograd.verify import random_ideal


def I(n, *strs):
    return MonomialIdeal.from_strings(n, list(strs))


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


def test_graph_round_trip():
    doc = {"n": 4, "edges": [[1, 2], [3, 4]]}
    G = parse_graph(doc)
    assert serialize_graph(G) == doc
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


def test_cli_verify(capsys):
    assert run_cli(["verify", "kk-remark", "--seed", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    # --json without --seed is a usage error for randomized output
    assert run_cli(["verify", "kk-remark", "--json"]) == 2


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


@pytest.mark.parametrize("setting", ["no-such-cap=5", "lq-generators=abc"])
def test_cli_malformed_caps_setting(ideal_file, monkeypatch, capsys, setting):
    f = ideal_file({"n": 2, "gens": [[1, 1]]})
    monkeypatch.setenv("MONOGRAD_CAPS", setting)
    assert run_cli(["reg", f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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

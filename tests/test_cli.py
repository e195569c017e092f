import argparse
import hashlib
import json
import random

import pytest

from k3enriques.cli import _build_parser, main
from k3enriques.lattice import (
    IntegralLattice,
    builtin,
    diag_lattice,
    direct_sum,
    fixture_path,
    save_lattice,
)

from oracles import arr, full_ball_short_vectors, random_unimodular


def test_lattice_info(capsys):
    assert main(["lattice", "info", str(fixture_path("Gamma_2"))]) == 0
    out = capsys.readouterr().out
    assert "rank: 10" in out
    assert "det: -1024" in out
    assert "signature: (1,9)" in out
    assert "divisors: [2, 2, 2, 2, 2, 2, 2, 2, 2, 2]" in out


# `lattice info` output as the discriminant_group-based command printed it
INFO_OUTPUT = {
    "U": "label: U\nrank: 2\ndet: -1\nsignature: (1,1)\neven: True\ndivisors: []\n",
    "E8": "label: E8\nrank: 8\ndet: 1\nsignature: (0,8)\neven: True\ndivisors: []\n",
    "E8_2": (
        "label: E8(2)\nrank: 8\ndet: 256\nsignature: (0,8)\neven: True\n"
        "divisors: [2, 2, 2, 2, 2, 2, 2, 2]\n"
    ),
    "Gamma": "label: Gamma\nrank: 10\ndet: -1\nsignature: (1,9)\neven: True\ndivisors: []\n",
    "Gamma_2": (
        "label: Gamma(2)\nrank: 10\ndet: -1024\nsignature: (1,9)\neven: True\n"
        "divisors: [2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n"
    ),
    "LambdaK3": (
        "label: LambdaK3\nrank: 22\ndet: -1\nsignature: (3,19)\neven: True\ndivisors: []\n"
    ),
}


@pytest.mark.parametrize("name", sorted(INFO_OUTPUT))
def test_lattice_info_output_is_pinned(capsys, name):
    assert main(["lattice", "info", str(fixture_path(name))]) == 0
    assert capsys.readouterr() == (INFO_OUTPUT[name], "")


def test_lattice_info_rank_zero_and_degenerate(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rank": 0, "gram": []}))
    assert main(["lattice", "info", str(path)]) == 0
    want = "label: -\nrank: 0\ndet: 1\nsignature: (0,0)\neven: True\ndivisors: []\n"
    assert capsys.readouterr() == (want, "")
    path.write_text(json.dumps({"rank": 2, "gram": [2, 2, 2, 2]}))
    assert main(["lattice", "info", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: degenerate form has no signature\n")


def test_lattice_roots(capsys):
    assert main(["lattice", "roots", str(fixture_path("E8")), "--norm", "-2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("count: 240")


def test_lattice_roots_output_pinned(tmp_path, capsys):
    # the count line and the 240 roots, as one print per line wrote them;
    # no roots, and the roots of a rank-1 lattice
    assert main(["lattice", "roots", str(fixture_path("E8")), "--norm", "-2"]) == 0
    out = capsys.readouterr().out
    digest = "d369a274e64c89c0197569cd74eb635454ef8d9e46a9dc6dcb8b574b4658bbc1"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert main(["lattice", "roots", str(fixture_path("E8_2")), "--norm", "-2"]) == 0
    assert capsys.readouterr() == ("count: 0\n", "")
    path = tmp_path / "rank1.json"
    save_lattice(diag_lattice([-2]), path)
    assert main(["lattice", "roots", str(path), "--norm", "-2"]) == 0
    assert capsys.readouterr() == ("count: 2\n1\n-1\n", "")


def test_lattice_roots_of_skewed_blocks_match_oracle(tmp_path, capsys):
    # E8, A3 and <-2>, each under its own change of basis: the listing equals
    # the one the unpivoted whole-ball oracle gives, line for line
    rng = random.Random(5)
    a3 = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    blocks = []
    for block, steps in ((builtin("E8"), 20), (IntegralLattice(a3), 6), (diag_lattice([-2]), 0)):
        u = random_unimodular(rng, block.rank, steps)
        blocks.append(IntegralLattice(u @ arr(block.gram) @ u.T))
    L = direct_sum(*blocks)
    path = tmp_path / "skewed.json"
    save_lattice(L, path)
    assert main(["lattice", "roots", str(path), "--norm", "-2"]) == 0
    want = [" ".join(map(str, v)) for v, nm in full_ball_short_vectors(L, 2).vectors if nm == -2]
    assert len(want) == 240 + 12 + 2
    assert capsys.readouterr() == ("\n".join([f"count: {len(want)}", *want]) + "\n", "")


def test_lattice_roots_indefinite_is_usage_error(capsys):
    assert main(["lattice", "roots", str(fixture_path("U"))]) == 2


def test_missing_file(capsys):
    assert main(["lattice", "info", "/nonexistent.json"]) == 2


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"rank": 1, "gram": [-2.7]}, "gram must be a list of integers"),
        ({"rank": 1, "gram": [True]}, "gram must be a list of integers"),
        ({"rank": -1, "gram": [4]}, "rank must be a nonnegative integer"),
        ([1, [2]], "a lattice file holds one JSON object"),
    ],
    ids=["float-entry", "bool-entry", "negative-rank", "not-an-object"],
)
def test_lattice_info_refuses_malformed_file(tmp_path, capsys, doc, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["lattice", "info", str(path)]) == 2
    assert reason in capsys.readouterr().err


def test_case_build_and_verify(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    assert main(["case", "build", "--sigma", "2", "--d", "1", "--out", str(cert_file)]) == 0
    assert main(["case", "verify", str(cert_file)]) == 0
    out = capsys.readouterr().out
    assert "verifies" in out

    doc = json.loads(cert_file.read_text())
    doc["checks"][3]["witness"]["signature"] = [1, 7]
    cert_file.write_text(json.dumps(doc))
    assert main(["case", "verify", str(cert_file)]) == 1


CERT_FIELDS = [
    "sigma", "d", "ambient_gram", "embedding_basis",
    "complement_basis", "complement_gram", "checks", "passed",
]


@pytest.mark.parametrize("doc", [CERT_FIELDS, " ".join(CERT_FIELDS)], ids=["list", "string"])
def test_case_verify_refuses_non_object(tmp_path, capsys, doc):
    # each holds the eight field names, so the missing-field test passes them
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["case", "verify", str(path)]) == 1
    assert "certificate is not a JSON object" in capsys.readouterr().err


def test_case_build_stdout(capsys):
    assert main(["case", "build", "--sigma", "5", "--d", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == 5 and doc["passed"]


def test_decide(capsys):
    assert main(["decide", "--p", "19", "--sigma", "5"]) == 0
    assert "Yes" in capsys.readouterr().out
    assert main(["decide", "--p", "19", "--sigma", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "Yes" and doc["certificate"]["passed"]


def test_decide_bad_p(capsys):
    assert main(["decide", "--p", "9", "--sigma", "3"]) == 2


def test_survey(tmp_path, capsys):
    csv_file = tmp_path / "table.csv"
    assert main(["survey", "--pmax", "13", "--csv", str(csv_file)]) == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "p,sigma,answer,d,reason"
    assert len(lines) == 1 + 5 * 10  # primes 3,5,7,11,13


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["case", "frobnicate"])
    assert exc.value.code == 2


def test_info_on_saved_lattice(tmp_path, capsys):
    path = tmp_path / "e8.json"
    save_lattice(builtin("E8"), path)
    assert main(["lattice", "info", str(path)]) == 0
    assert "even: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["case", "verify"], ["lattice", "info"]], ids=["case", "lattice"])
def test_deeply_nested_file_is_input_error(tmp_path, capsys, command):
    # json.load raises RecursionError on this; the CLI refuses it with a reason
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert "nested too deeply" in err and "Traceback" not in err


def test_parser_is_built_once(monkeypatch, capsys):
    path = str(fixture_path("U"))
    main(["lattice", "info", path])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(["lattice", "info", path]) == 0
    assert built == []


def test_cached_parser_keeps_no_state(capsys):
    path = str(fixture_path("E8"))
    commands = [
        ["lattice", "roots", path, "--norm", "-4"],
        ["lattice", "roots", path, "--norm", "x"],
        ["lattice", "roots", path],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    alone = []
    for argv in commands:
        _build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _ in alone] == [0, 2, 0]
    assert alone[0][1].out.startswith("count: 2160\n")
    assert alone[2][1].out.startswith("count: 240\n")  # the default --norm -2
    assert [run(argv) for argv in commands] == alone

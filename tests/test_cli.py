"""End-to-end command line behavior, run in process."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from toricmld import Germ, Vec2, certify, cli, geometry, germs, lattices, oracle
from toricmld.certify import classify_germ_record
from toricmld.cli import main
from toricmld.lattices import (
    format_rational,
    lattice_from_generators,
    lattice_from_quotient_type,
    parse_rational,
    superlattices,
)
from toricmld.records import (
    TABLE_COLUMNS,
    dumps,
    record_from_json,
    record_table_row,
    record_to_json,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mld_smooth_and_quotient(capsys):
    code, out, err = run_cli(capsys, "mld", "--type", "5,1,1")
    assert (code, err) == (0, "")
    assert out == "2/5\n(1/5,1/5)\n"

    code, out, _ = run_cli(capsys, "mld", "--type", "1,0,0", "--boundary", "1/2,0")
    assert code == 0
    assert out == "3/2\n(1,1)\n"

    code, out, _ = run_cli(capsys, "mld", "--type", "3,2,1")
    assert code == 0
    assert out == "1\n(1/3,2/3) (2/3,1/3)\n"


def test_classify_record_content(capsys):
    code, out, _ = run_cli(capsys, "classify", "--type", "5,1,1", "--t", "2/5")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == "2/5" and data["mld"] == "2/5"
    assert data["certificate"] == {
        "case": "b",
        "m1": ["2", "3"],
        "m2": ["3", "2"],
        "t1": "1/5",
        "t2": "1/5",
    }
    assert data["series"] == []
    assert data["case_data"]["tag"] == "split"
    assert data["case_data"]["gamma"] == "1/3"

    code, out, _ = run_cli(capsys, "classify", "--type", "5,1,1", "--t", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["case"] == "not_tlc"
    assert data["certificate"]["e"] == ["1/5", "1/5"]


def test_classify_rejects_zero_psi(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--type", "1,0,0", "--boundary", "1,1", "--t", "1"
    )
    assert code == 1
    assert "nonzero psi" in err


def test_invalid_input_exits_one(capsys):
    assert run_cli(capsys, "mld", "--type", "5,1")[0] == 1
    assert run_cli(capsys, "mld", "--type", "5,1,1", "--no-such-flag")[0] == 1
    assert run_cli(capsys, "mld", "--type", "1,0,0", "--boundary", "0.5,0")[0] == 1
    assert run_cli(capsys, "classify", "--type", "5,1,1", "--t", "0")[0] == 1
    assert run_cli(capsys, "lawrence", "--p", "1", "--q", "2")[0] == 1
    assert (
        run_cli(
            capsys, "lawrence", "--type", "5,1,1", "--index-max", "3", "--p", "1", "--q", "2"
        )[0]
        == 1
    )
    assert run_cli(capsys, "verify", "--in", "/no/such/file.jsonl")[0] == 1
    assert run_cli(capsys, "enumerate", "--mode", "cyclic", "--t", "1")[0] == 1
    assert (
        run_cli(capsys, "enumerate", "--mode", "cyclic", "--r-max", "3", "--t", "1",
                "--boundary-set", "file")[0]
        == 1
    )


OUT_OF_RANGE = "boundary coefficient b1 must lie in [0, 1]"
NEEDS_FILE_SET = "--boundary-file needs --boundary-set file"


@pytest.mark.parametrize(
    "pairs, flags, message",
    [
        ('[["-1","0"]]', ("--boundary-set", "file"), f"{OUT_OF_RANGE}: -1"),
        ('[["2","0"]]', ("--boundary-set", "file"), f"{OUT_OF_RANGE}: 2"),
        ('[["0","1/2"]]', (), NEEDS_FILE_SET),
        ('[["0","1/2"]]', ("--boundary-set", "standard"), NEEDS_FILE_SET),
    ],
)
def test_enumerate_rejects_a_bad_boundary_file(capsys, tmp_path, pairs, flags, message):
    path = tmp_path / "pairs.json"
    path.write_text(pairs)
    out_path = tmp_path / "kept.jsonl"
    out_path.write_text("kept\n")
    base = ("enumerate", "--mode", "cyclic", "--r-max", "4", "--t", "1/2",
            "--boundary-file", str(path))
    assert run_cli(capsys, *base, *flags) == (1, "", f"error: {message}\n")
    # Checked before the output file is opened.
    assert run_cli(capsys, *base, *flags, "--out", str(out_path))[0] == 1
    assert out_path.read_text() == "kept\n"


def test_parser_is_built_once_and_keeps_no_arguments(capsys):
    # One parser serves every call in a process; each call parses into a
    # fresh namespace, so a flag given once never reaches a later call.
    classify = ("classify", "--type", "5,1,1", "--t", "2/5")
    first = run_cli(capsys, *classify)
    assert first[0] == 0 and first[2] == ""
    assert run_cli(capsys, "mld", "--type", "1,0,0", "--boundary", "1/2,0") == (0, "3/2\n(1,1)\n", "")
    code, out, err = run_cli(capsys, "classify", "--type", "5,1,1", "--t", "2/5", "--no-such-flag")
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert run_cli(capsys, *classify) == first
    assert cli._parser.cache_info().currsize == 1


def test_parser_is_not_built_at_import():
    probe = "import toricmld.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout == "0\n", proc.stderr


def test_checks_survive_python_O(tmp_path):
    # Every check raises, never asserts, so -O changes neither output nor exit codes.
    def toricmld(*flags_and_argv):
        return subprocess.run(
            [sys.executable, *flags_and_argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )

    sweep = ("-m", "toricmld", "enumerate", "--mode", "cyclic", "--r-max", "30", "--t", "1/2")
    plain, optimized = toricmld(*sweep), toricmld("-O", *sweep)
    assert (plain.returncode, optimized.returncode) == (0, 0), optimized.stderr
    assert plain.stdout and optimized.stdout == plain.stdout

    data = json.loads(plain.stdout.splitlines()[0])
    data["mld"] = "17"
    path = tmp_path / "wrong_mld.jsonl"
    path.write_text(dumps(data) + "\n")
    proc = toricmld("-O", "-m", "toricmld", "verify", "--in", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("verification failure: line 1: recorded mld disagrees")


def test_enumerate_verify_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, _, _ = run_cli(
        capsys,
        "enumerate", "--mode", "cyclic", "--r-max", "12", "--t", "1/2",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert all(json.loads(line)["certificate"]["case"] != "not_tlc" for line in lines)

    code, out, _ = run_cli(capsys, "verify", "--in", str(out_path))
    assert code == 0
    assert out == f"verified {len(lines)} records\n"


def test_verify_rejects_tampered_record(capsys, tmp_path):
    out_path = tmp_path / "records.jsonl"
    run_cli(capsys, "enumerate", "--mode", "cyclic", "--r-max", "6", "--t", "1/2",
            "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    data = json.loads(lines[0])
    data["mld"] = "17"
    lines[0] = dumps(data)
    out_path.write_text("\n".join(lines) + "\n")

    code, _, err = run_cli(capsys, "verify", "--in", str(out_path))
    assert code == 2
    assert "line 1" in err and "oracle" in err


def test_verify_rejects_malformed_lines(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{\"neither\": 1}\n")
    assert run_cli(capsys, "verify", "--in", str(bad))[0] == 1
    bad.write_text("not json\n")
    assert run_cli(capsys, "verify", "--in", str(bad))[0] == 1


@pytest.mark.parametrize("rows", [1, 0])
def test_verify_rejects_a_lattice_that_does_not_span_the_plane(capsys, tmp_path, rows):
    # Lattices are full rank; fewer basis rows are invalid input (exit 1).
    path = tmp_path / "short.jsonl"
    for argv in (
        ("classify", "--type", "5,1,1", "--t", "2/5"),
        ("lawrence", "--type", "5,1,1", "--p", "1", "--q", "2"),
    ):
        data = json.loads(run_cli(capsys, *argv)[1])
        lattice = data["germ"]["lattice"] if "germ" in data else data["lattice"]
        del lattice[rows:]
        path.write_text(dumps(data) + "\n")
        code, out, err = run_cli(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, "") and err.startswith("error: line 1: "), argv


def test_verify_rejects_a_lattice_without_the_integer_plane(capsys, tmp_path):
    # Germ lattices contain the integer plane; the oracle assumes it.
    path = tmp_path / "coarse.jsonl"
    for argv in (
        ("classify", "--type", "5,1,1", "--t", "2/5"),
        ("lawrence", "--type", "1,0,0", "--p", "1", "--q", "2"),
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
    ):
        data = json.loads(run_cli(capsys, *argv)[1])
        (data["germ"] if "germ" in data else data)["lattice"] = [["2", "0"], ["0", "1"]]
        path.write_text(dumps(data) + "\n")
        code, out, err = run_cli(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: line 1: lattice does not contain the integer plane"), argv


def two_line_file(tmp_path, capsys, argv, mutate):
    """A file whose first record is argv's output and whose second is a mutated copy."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    mutate(data)
    path = tmp_path / "mutated.jsonl"
    path.write_text(out + dumps(data) + "\n")
    return path


def test_verify_names_the_line_of_a_malformed_record(capsys, tmp_path):
    # A contained result without its covector is invalid input: exit 1
    # with the line, no traceback.
    path = two_line_file(
        tmp_path,
        capsys,
        ("lawrence", "--type", "1,0,0", "--p", "1", "--q", "2"),
        lambda data: data["lawrence"].pop("m"),
    )
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 2: record misses key 'm'\n"


def _put(key, value):
    def mutate(data):
        data[key] = value

    return mutate


def _put_series_id(value):
    def mutate(data):
        data["series"][0][0] = value

    return mutate


# (argv whose output is mutated, the mutation, the error), one per domain
# rule a decoded record must meet. Integer fields take JSON integers only:
# a float is never truncated, and a bool is not an integer.
OUT_OF_DOMAIN = {
    "lawrence p float": (
        ("lawrence", "--type", "5,1,2", "--p", "4", "--q", "5"),
        _put("p", 4.9),
        "p must be a JSON integer: 4.9",
    ),
    "lawrence p bool": (
        ("lawrence", "--type", "5,1,2", "--p", "4", "--q", "5"),
        _put("p", True),
        "p must be a JSON integer: True",
    ),
    "pair weight float": (
        ("lawrence", "--type", "8,1,5", "--p", "1", "--q", "2"),
        lambda data: data["lawrence"].update(k1=1.0),
        "k1 must be a JSON integer: 1.0",
    ),
    "complement level string": (
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
        lambda data: data["complement"].update(n="3"),
        "n must be a JSON integer: '3'",
    ),
    "complement q float": (
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
        _put("q", 3.0),
        "q must be a JSON integer: 3.0",
    ),
    "series id float": (
        ("classify", "--type", "1,0,0", "--t", "1"),
        _put_series_id(0.0),
        "series id must be a JSON integer: 0.0",
    ),
    "threshold zero": (
        ("classify", "--type", "5,1,1", "--t", "2/5"),
        _put("t", "0"),
        "threshold must be positive: 0",
    ),
    "threshold negative": (
        ("classify", "--type", "5,1,1", "--t", "2/5"),
        _put("t", "-1/2"),
        "threshold must be positive: -1/2",
    ),
    "lawrence q zero": (
        ("lawrence", "--type", "5,1,1", "--p", "1", "--q", "2"),
        _put("q", 0),
        "p and q must be positive integers: 1/0",
    ),
    "complement p zero": (
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
        _put("p", 0),
        "p and q must be positive integers: 0/3",
    ),
    "complement p negative": (
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
        _put("p", -1),
        "p and q must be positive integers: -1/3",
    ),
    "complement q zero": (
        ("complement", "--type", "5,1,1", "--p", "1", "--q", "3"),
        _put("q", 0),
        "p and q must be positive integers: 1/0",
    ),
}


@pytest.mark.parametrize("name", OUT_OF_DOMAIN)
def test_verify_rejects_a_record_outside_the_domain(capsys, tmp_path, name):
    argv, mutate, message = OUT_OF_DOMAIN[name]
    path = two_line_file(tmp_path, capsys, argv, mutate)
    assert run_cli(capsys, "verify", "--in", str(path)) == (1, "", f"error: line 2: {message}\n")


def test_verify_rejects_a_consistent_record_with_a_negative_boundary(capsys, tmp_path):
    # Certificate, mld and series all match this germ; only its boundary is out of range.
    germ = Germ(lattice_from_quotient_type(5, 1, 1), Fraction(-1), Fraction(0))
    path = tmp_path / "negative.jsonl"
    path.write_text(dumps(record_to_json(classify_germ_record(germ, Fraction(1, 2)))) + "\n")
    assert run_cli(capsys, "verify", "--in", str(path)) == (
        1,
        "",
        "error: line 1: boundary coefficient b1 must lie in [0, 1]: -1\n",
    )


def test_resume_names_the_line_of_a_malformed_record(capsys, tmp_path):
    out_path = tmp_path / "resume.jsonl"
    out_path.write_text('{"germ": {"lattice": []}}\n{"t": "1/2"}\n')
    code, out, err = run_cli(
        capsys, "enumerate", "--mode", "cyclic", "--r-max", "3", "--t", "1/2",
        "--out", str(out_path), "--resume",
    )
    assert (code, out) == (1, "")
    assert err == "error: line 2: record misses key 'germ'\n"


def _set(record, key, value):
    def mutate(data):
        data[record][key] = value

    return mutate


# (argv whose output is mutated, which field gets which value), one per
# check of a non-classification record that a mutation must trip.
NEGATIVE_CONTROLS = {
    "hit off the lattice": (
        ("lawrence", "--type", "5,1,2", "--p", "4", "--q", "5"),
        _set("lawrence", "e", ["1/10", "1/10"]),
    ),
    "hit on the simplex edge": (
        ("lawrence", "--type", "5,1,2", "--p", "4", "--q", "5"),
        _set("lawrence", "e", ["3/5", "1/5"]),
    ),
    "contained outside the box": (
        ("lawrence", "--type", "1,0,0", "--p", "1", "--q", "2"),
        _set("lawrence", "m", ["0", "4"]),
    ),
    "contained non-integral": (
        ("lawrence", "--type", "1,0,0", "--p", "1", "--q", "2"),
        _set("lawrence", "m", ["0", "3/2"]),
    ),
    "complement witness non-integral": (
        ("complement", "--type", "1,0,0", "--p", "1", "--q", "1"),
        _set("complement", "witness", ["0", "1/2"]),
    ),
    "complement boundary above one": (
        ("complement", "--type", "1,0,0", "--p", "1", "--q", "1"),
        _set("complement", "witness", ["0", "-1"]),
    ),
    # 1/8(1,5) is the joint integrality locus of (1,3) and (3,1), weights 1 and 1.
    "pair with another locus": (
        ("lawrence", "--type", "8,1,5", "--p", "1", "--q", "2"),
        _set("lawrence", "m1", ["1", "1"]),
    ),
    "pair average outside the box": (
        ("lawrence", "--type", "8,1,5", "--p", "1", "--q", "2"),
        _set("lawrence", "k1", 3),
    ),
}


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_verify_rejects_a_mutated_record(capsys, tmp_path, name):
    argv, mutate = NEGATIVE_CONTROLS[name]

    def consistent(data):
        # Keep boundary = 1 - witness/n, so only the mutated check fails.
        mutate(data)
        comp = data.get("complement")
        if comp is not None:
            witness = map(parse_rational, comp["witness"])
            comp["boundary"] = [format_rational(1 - x / comp["n"]) for x in witness]

    path = two_line_file(tmp_path, capsys, argv, consistent)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("verification failure: line 2: ")


CLASSIFY_511 = ("classify", "--type", "5,1,1", "--t", "2/5")

# (argv whose output is mutated, the mutation): each leaves a `type` label
# that is not `cyclic_type` of the record's lattice.
LABEL_CONTROLS = {
    "label of another lattice": (CLASSIFY_511, lambda data: data["germ"].update(type=[7, 1, 3])),
    "junk label": (CLASSIFY_511, lambda data: data["germ"].update(type="junk")),
    "null label": (CLASSIFY_511, lambda data: data["germ"].update(type=None)),
    "label deleted": (CLASSIFY_511, lambda data: data["germ"].pop("type")),
    "complement label deleted": (
        ("complement", "--type", "5,1,1", "--bounded"),
        lambda data: data["germ"].pop("type"),
    ),
    "lawrence label deleted": (
        ("lawrence", "--type", "5,1,1", "--p", "1", "--q", "2"),
        lambda data: data.pop("type"),
    ),
    # The Z/2 x Z/2 quotient is not cyclic, so its record has no label.
    "label on a non-cyclic lattice": (
        ("lawrence", "--type", "1,0,0", "--p", "1", "--q", "2"),
        lambda data: data.update(lattice=[["1/2", "0"], ["0", "1/2"]]),
    ),
}


@pytest.mark.parametrize("name", LABEL_CONTROLS)
def test_verify_checks_the_type_label(capsys, tmp_path, name):
    argv, mutate = LABEL_CONTROLS[name]
    path = two_line_file(tmp_path, capsys, argv, mutate)
    assert run_cli(capsys, "verify", "--in", str(path)) == (
        2,
        "",
        "verification failure: line 2: type label disagrees with the lattice\n",
    )


def test_engine_runs_the_shared_checkers(monkeypatch, capsys):
    # A construction step that goes wrong is caught by the same checker
    # `verify` runs on the record: exit 2, naming the identity and the lattice.
    monkeypatch.setattr(certify, "box_maximal", lambda m, bound: Vec2(Fraction(0), Fraction(3, 2)))
    code, out, err = run_cli(capsys, "lawrence", "--type", "1,0,0", "--p", "1", "--q", "2")
    assert (code, out) == (2, "")
    assert err == (
        "verification failure: verify_lawrence_result (containment witness is not integral)"
        " fails for Lattice[(1,0), (0,1)]\n"
    )

    # (1, 0) pairs with (1/5, 1/5) to 1/5, so it is off the dual of 1/5(1,1):
    # a forged dual sail whose one edge starts there hands it out.
    off_dual = lattices.Sail(1, [lattices.SailEdge(1, 0, 1, -1, 1)])
    monkeypatch.setattr(geometry, "klein_sail", lambda lat: off_dual)
    code, out, err = run_cli(capsys, "complement", "--type", "5,1,1", "--bounded")
    assert (code, out) == (2, "")
    assert err == (
        "verification failure: verify_complement (witness does not pair integrally with the"
        " lattice) fails for Lattice[(1/5,1/5), (0,1)] at psi (1,1)\n"
    )


def test_verify_cross_checks_complements_with_the_oracle(monkeypatch, capsys, tmp_path):
    # The complement checker proves the value at witness/n without the
    # oracle; `verify` still asks the oracle, so an oracle that finds 0
    # there disagrees with a valid record.
    calls = []

    def zero(lat, psi):
        calls.append(psi)
        return Fraction(0)

    path = tmp_path / "complement.jsonl"
    for argv in (("--bounded",), ("--p", "2", "--q", "5")):
        code, out, _ = run_cli(capsys, "complement", "--type", "5,1,1", *argv)
        assert code == 0
        path.write_text(out)
        assert run_cli(capsys, "verify", "--in", str(path)) == (0, "verified 1 records\n", "")
        monkeypatch.setattr(cli, "mld_oracle_value", zero)
        calls.clear()
        assert run_cli(capsys, "verify", "--in", str(path)) == (
            2,
            "",
            "verification failure: line 1: complement value disagrees with the oracle\n",
        )
        comp = json.loads(out)["complement"]
        assert calls == [Vec2(*(parse_rational(x) / comp["n"] for x in comp["witness"]))]
        monkeypatch.undo()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--mode", "cyclic", "--r-max", "0", "--t", "1/2"),
         "order bound must be a positive integer: 0"),
        (("enumerate", "--mode", "all", "--index-max", "0", "--t", "1/2"),
         "index bound must be a positive integer: 0"),
        (("enumerate", "--mode", "all", "--index-max", "-3", "--t", "1/2"),
         "index bound must be a positive integer: -3"),
    ],
)
def test_a_sweep_bound_below_one_leaves_the_output_alone(capsys, tmp_path, argv, message):
    out_path = tmp_path / "kept.jsonl"
    out_path.write_bytes(b"kept\n")
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    assert run_cli(capsys, *argv, "--out", str(out_path)) == (1, "", f"error: {message}\n")
    assert out_path.read_bytes() == b"kept\n"


def test_lawrence_sweep_bound_below_one_exits_one(capsys):
    assert run_cli(capsys, "lawrence", "--index-max", "0", "--p", "1", "--q", "2") == (
        1,
        "",
        "error: index bound must be a positive integer: 0\n",
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--bounded", "--p", "0", "--q", "-3"), "--bounded takes no --p or --q"),
        (("--bounded", "--p", "1"), "--bounded takes no --p or --q"),
        (("--bounded", "--q", "1"), "--bounded takes no --p or --q"),
        (("--p", "0"), "p and q must be positive integers: 0/1"),
        (("--q", "0"), "p and q must be positive integers: 1/0"),
    ],
)
def test_complement_ratio_flags(capsys, flags, message):
    code_out_err = run_cli(capsys, "complement", "--type", "5,1,1", *flags)
    assert code_out_err == (1, "", f"error: {message}\n")


def test_verify_rejects_a_dependent_pair(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "lawrence", "--index-max", "10", "--p", "1", "--q", "2")
    assert code == 0
    data = next(
        record
        for record in map(json.loads, out.splitlines())
        if record["lawrence"]["kind"] == "equals_intersection"
    )
    result = data["lawrence"]
    result["m2"] = [format_rational(2 * parse_rational(x)) for x in result["m1"]]
    path = tmp_path / "dependent.jsonl"
    path.write_text(dumps(data) + "\n")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("verification failure: line 1: ") and "dependent" in err


@pytest.mark.parametrize("command", ["lawrence", "complement"])
def test_broken_identity_exits_two(monkeypatch, capsys, command):
    # A wrong slice offset breaks an integrality identity of the split case.
    real = certify.case_analysis_lattice

    def skewed(lat, psi, *rest):
        data = real(lat, psi, *rest)
        an, ad = data.alpha
        return data._replace(alpha=(7 * an + ad, 7 * ad))  # alpha + 1/7

    for module in (certify, geometry):
        monkeypatch.setattr(module, "case_analysis_lattice", skewed)
    code, out, err = run_cli(capsys, command, "--type", "5,1,1", "--p", "2", "--q", "5")
    assert (code, out) == (2, "")
    assert err.startswith("verification failure: alpha/gamma is an integer")
    assert "fails for Lattice[(1/5,1/5), (0,1)]" in err


@pytest.mark.parametrize("t", ["1/1000000", "1/1000000000000000000"])
def test_hostile_threshold_exits_one_quickly(capsys, tmp_path, t):
    code, out, _ = run_cli(capsys, "classify", "--type", "5,1,1", "--t", "1/3")
    assert code == 0
    record = json.loads(out)
    record["t"] = t
    edited = tmp_path / "edited.jsonl"
    edited.write_text(dumps(record) + "\n")
    out_path = tmp_path / "sweep.jsonl"
    for argv, prefix in (
        (("classify", "--type", "5,1,1", "--t", t), "error: series membership"),
        (("enumerate", "--mode", "cyclic", "--r-max", "200", "--t", t, "--out", str(out_path)),
         "error: series membership"),
        (("verify", "--in", str(edited)), "error: line 1: series membership"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith(prefix) and "above the limit of 100000" in err, err
    assert not out_path.exists()


BIG_ORDER = "1000000000000,1,7"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--type", BIG_ORDER, "--t", "1/8"),
        ("lawrence", "--type", BIG_ORDER, "--p", "1", "--q", "2"),
    ],
)
def test_verify_refuses_an_index_above_the_oracle_limit(capsys, tmp_path, argv):
    # The engine answers at order 10^12; the oracle refuses before it
    # enumerates any representative, so verify exits 1 at once.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "big.jsonl"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: line 1: index 1000000000000 is above the oracle limit of"
        f" {oracle.ORACLE_LIMIT} quotient classes\n"
    )


@pytest.mark.parametrize(
    "lattice, label, order",
    [
        ([["1/100000000", "0"], ["0", "1/100000000"]], None, 10**16),
        (
            [["1/2", "1/2000000000000"], ["0", "2/2000000000000"]],
            [2 * 10**12, 10**12, 1],
            2 * 10**12,
        ),
    ],
)
def test_verify_labels_a_huge_lattice_before_refusing_it(capsys, tmp_path, lattice, label, order):
    # The type label is checked first and costs O(log) in the order, so a
    # huge lattice, cyclic or not, reaches the oracle's refusal at once.
    code, out, _ = run_cli(capsys, "classify", "--type", "5,1,1", "--t", "1/3")
    assert code == 0
    record = json.loads(out)
    record["germ"]["lattice"] = lattice
    del record["germ"]["type"]
    if label is not None:
        record["germ"]["type"] = label
    path = tmp_path / "huge.jsonl"
    path.write_text(dumps(record) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: line 1: index {order} is above the oracle limit of"
        f" {oracle.ORACLE_LIMIT} quotient classes\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--type", "20000003,1,7", "--boundary", "1,1"), "index 20000003"),
        (("--type", BIG_ORDER, "--boundary", "1,1"), "index 1000000000000"),
        (("--type", "200003,1,200002"), "minimizer count 200002"),
    ],
)
def test_mld_refuses_a_listing_above_the_limit(capsys, argv, message):
    # Zero psi lists every class, and 1/r(1, r-1) at psi = (1, 1) has r - 1
    # minimizers: the count is known before any point is built.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "mld", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20, peak
    assert (code, out) == (1, "")
    assert err == (
        f"error: {message} is above the listing limit of {germs.ARGMIN_LIMIT} minimizers\n"
    )


def _answers_then_verify_refuses(capsys, tmp_path, argv, complement, order):
    # The construction walks Klein sails only, so it answers at once; the
    # oracle's refusal moves to `verify`, which exits 1 at once.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "complement", "--type", *argv)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["complement"] == complement
    path = tmp_path / "big.jsonl"
    path.write_text(out)
    start = time.perf_counter()
    assert run_cli(capsys, "verify", "--in", str(path)) == (
        1,
        "",
        f"error: line 1: index {order} is above the oracle limit of"
        f" {oracle.ORACLE_LIMIT} quotient classes\n",
    )
    assert time.perf_counter() - start < 1


def test_complement_answers_above_the_oracle_limit(capsys, tmp_path):
    _answers_then_verify_refuses(
        capsys,
        tmp_path,
        (BIG_ORDER, "--p", "1", "--q", "1000000000000"),
        {
            "n": 1000000000000,
            "boundary": ["7/8", "7/8"],
            "witness": ["125000000000", "125000000000"],
        },
        1000000000000,
    )


def test_bounded_complement_at_a_large_order(capsys):
    # The level and the covector come off the dual sail in O(log r), and
    # the checker proves the value without the oracle.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "complement", "--type", "1000003,1,1", "--bounded")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert json.loads(out)["complement"] == {
        "n": 500002,
        "boundary": ["1/500002", "0"],
        "witness": ["500001", "500002"],
    }


def test_bounded_complement_answers_above_the_oracle_limit(capsys, tmp_path):
    _answers_then_verify_refuses(
        capsys,
        tmp_path,
        ("1000000000039,1,1", "--bounded"),
        {
            "n": 500000000020,
            "boundary": ["1/500000000020", "0"],
            "witness": ["500000000019", "500000000020"],
        },
        1000000000039,
    )


def test_oracle_walk_is_bounded_by_the_index(capsys, tmp_path):
    # The rows of ((1/m, 1/m^2), (0, 1/m)) have denominators m^2 and m,
    # but the index is m^2: the oracle walks index pairs, not m^3.
    m = 300
    lat = lattice_from_generators([(Fraction(1, m), Fraction(1, m * m)), (0, Fraction(1, m))])
    germ = Germ(lat, Fraction(0), Fraction(0))
    path = tmp_path / "imprimitive.jsonl"
    path.write_text(dumps(record_to_json(classify_germ_record(germ, Fraction(1, 2)))) + "\n")
    start = time.perf_counter()
    assert run_cli(capsys, "verify", "--in", str(path)) == (0, "verified 1 records\n", "")
    assert time.perf_counter() - start < 2


def test_verify_shares_a_lattice_across_thresholds(capsys, tmp_path):
    # Records 1 to 3 share one lattice; record 3 has another threshold,
    # so its series list is recomputed, not taken from record 2.
    outs = [
        run_cli(capsys, "classify", "--type", "5,1,2", *boundary, "--t", t)[1]
        for boundary, t in (((), "1/4"), (("--boundary", "1/2,0"), "1/4"), ((), "1/3"))
    ]
    records = [json.loads(out) for out in outs]
    assert len({dumps(record["germ"]["lattice"]) for record in records}) == 1
    assert records[1]["series"] != records[2]["series"]
    path = tmp_path / "shared.jsonl"
    path.write_text("".join(outs))
    assert run_cli(capsys, "verify", "--in", str(path)) == (0, "verified 3 records\n", "")

    records[2]["series"] = records[1]["series"]
    path.write_text(outs[0] + outs[1] + dumps(records[2]) + "\n")
    assert run_cli(capsys, "verify", "--in", str(path)) == (
        2,
        "",
        "verification failure: line 3: series memberships disagree with recomputation\n",
    )
    assert cli._run is None


def test_verify_checks_a_returning_lattice_again(capsys, tmp_path):
    # Lattices A, B, A: the third record is checked against its own
    # lattice, not against what was derived for B.
    first, second = (
        run_cli(capsys, "classify", "--type", ty, "--t", "1/3")[1] for ty in ("5,1,2", "7,1,3")
    )
    third = json.loads(first)
    third["germ"]["type"] = [7, 1, 3]
    path = tmp_path / "aba.jsonl"
    path.write_text(first + second + dumps(third) + "\n")
    assert run_cli(capsys, "verify", "--in", str(path)) == (
        2,
        "",
        "verification failure: line 3: type label disagrees with the lattice\n",
    )


def test_verify_builds_no_representative_set(capsys, tmp_path, monkeypatch):
    # Every record kind reaches the oracle through the column walk of
    # `mld_oracle_value`; neither the full oracle nor the engine's
    # listing of the quotient runs.
    sweep = tmp_path / "mixed.jsonl"
    args = ("--mode", "all", "--index-max", "5", "--boundary-set", "standard", "--t", "1/4")
    assert run_cli(capsys, "enumerate", *args, "--include-not-tlc", "--out", str(sweep))[0] == 0
    lawrence = tmp_path / "lawrence.jsonl"
    lawrence.write_text(run_cli(capsys, "lawrence", "--index-max", "6", "--p", "1", "--q", "2")[1])
    complements = tmp_path / "complements.jsonl"
    complements.write_text(
        run_cli(capsys, "complement", "--type", "7,1,3", "--p", "1", "--q", "3")[1]
        + run_cli(capsys, "complement", "--type", "7,1,3", "--bounded")[1]
    )

    def refuse(lat, *args):
        raise AssertionError(f"verify enumerated the quotient of {lat}")

    monkeypatch.setattr(oracle, "mld_oracle_lattice", refuse)
    for module in (lattices, germs):
        monkeypatch.setattr(module, "residues", refuse)
    for path, count in ((sweep, 546), (lawrence, 33), (complements, 2)):
        assert run_cli(capsys, "verify", "--in", str(path)) == (
            0,
            f"verified {count} records\n",
            "",
        )
    assert cli._run is None


def test_verify_drops_the_lattice_entry_before_other_records(capsys, tmp_path, monkeypatch):
    entries = []
    verify_lawrence = cli._verify_lawrence

    def spy(data, line_no):
        entries.append(cli._run.lattice)
        verify_lawrence(data, line_no)

    monkeypatch.setattr(cli, "_verify_lawrence", spy)
    outs = [
        run_cli(capsys, "classify", "--type", "5,1,1", "--t", "1/3")[1],
        run_cli(capsys, "lawrence", "--type", "5,1,1", "--p", "1", "--q", "2")[1],
    ]
    path = tmp_path / "kinds.jsonl"
    path.write_text("".join(outs))
    assert run_cli(capsys, "verify", "--in", str(path)) == (0, "verified 2 records\n", "")
    assert entries == [None]


def test_verify_empties_its_literal_dict_when_it_is_full(capsys, tmp_path, monkeypatch):
    # With room for 8 literals, the 133 distinct literals of the mixed
    # sweep fill the dict again and again: the answer is the same, and the
    # dict never holds more than one record's literals (at most 14) past
    # the limit.
    sizes = []
    verify_classification = cli._verify_classification

    def spy(data, line_no):
        verify_classification(data, line_no)
        sizes.append(len(cli._run.literals))

    monkeypatch.setattr(cli, "_verify_classification", spy)
    monkeypatch.setattr(cli, "_LITERALS_HELD", 8)
    sweep = tmp_path / "mixed.jsonl"
    args = ("--mode", "all", "--index-max", "5", "--boundary-set", "standard", "--t", "1/4")
    assert run_cli(capsys, "enumerate", *args, "--include-not-tlc", "--out", str(sweep))[0] == 0
    assert run_cli(capsys, "verify", "--in", str(sweep)) == (0, "verified 546 records\n", "")
    assert len(sizes) == 546 and 8 < max(sizes) <= 8 + 14
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_verify_of_two_large_records_peaks_under_60_mb(capsys, tmp_path):
    # Two records of different order-1,000,003 lattices: the column walk
    # holds no per-class state, so the child stays near the interpreter's
    # own footprint; a set of one point per class would take about 175 MB.
    outs = [
        run_cli(capsys, "classify", "--type", f"1000003,1,{w}", "--t", "1/7")[1] for w in (7, 8)
    ]
    path = tmp_path / "large.jsonl"
    path.write_text("".join(outs))
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'toricmld', 'verify', '--in', sys.argv[1]],"
        " check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout)  # ru_maxrss is in kilobytes on Linux
    assert peak_kb < 60 * 1024, peak_kb


def test_enumerate_resume_is_idempotent(capsys, tmp_path):
    out_path = tmp_path / "resume.jsonl"
    args = ("enumerate", "--mode", "cyclic", "--r-max", "8", "--t", "1/3",
            "--out", str(out_path))
    assert run_cli(capsys, *args)[0] == 0
    full = out_path.read_text()

    assert run_cli(capsys, *args, "--resume")[0] == 0
    assert out_path.read_text() == full

    # Dropping the tail and resuming restores the byte-identical file.
    lines = full.splitlines()
    out_path.write_text("\n".join(lines[:-2]) + "\n")
    assert run_cli(capsys, *args, "--resume")[0] == 0
    assert out_path.read_text() == full

    assert run_cli(capsys, *args, "--resume", "--format", "csv")[0] == 1


def test_enumerate_table_formats(capsys):
    base = ("enumerate", "--mode", "cyclic", "--r-max", "4", "--t", "1")
    code, out, _ = run_cli(capsys, *base, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert len(lines) > 1 and lines[1].startswith("smooth,")

    code, out, _ = run_cli(capsys, *base, "--format", "markdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| " + " | ".join(TABLE_COLUMNS) + " |"
    assert lines[1] == "|" + "---|" * len(TABLE_COLUMNS)
    assert lines[2].startswith("| smooth |")

    # Index labels and not_tlc rows, checked row by row against the
    # decoded jsonl records.
    base = ("enumerate", "--mode", "all", "--index-max", "4", "--boundary-set", "standard",
            "--t", "1/4", "--include-not-tlc")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    rows = [record_table_row(record_from_json(json.loads(line))) for line in out.splitlines()]
    assert any(row[0].startswith("index ") for row in rows)
    assert any("not_tlc" in row for row in rows)

    code, out, _ = run_cli(capsys, *base, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1:] == rows

    code, out, _ = run_cli(capsys, *base, "--format", "markdown")
    assert code == 0
    assert out.splitlines()[2:] == ["| " + " | ".join(row) + " |" for row in rows]


def test_enumerate_standard_boundaries(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--mode", "cyclic", "--r-max", "1", "--t", "1/10",
        "--boundary-set", "standard",
    )
    assert code == 0
    # 7 ladder values give 28 unordered pairs; (1,1) zeroes psi and is
    # skipped, every other pair clears the low threshold.
    assert len(out.splitlines()) == 27


def test_enumerate_boundary_file(capsys, tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([["0", "1/2"], ["1/2", "0"]]))
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--mode", "cyclic", "--r-max", "1", "--t", "1/10",
        "--boundary-set", "file", "--boundary-file", str(pairs),
    )
    assert code == 0
    lines = out.splitlines()
    # Both orderings name the same germ after swap canonicalization.
    assert len(lines) == 1
    assert json.loads(lines[0])["mld"] == "3/2"


def test_enumerate_include_not_tlc(capsys):
    base = ("enumerate", "--mode", "cyclic", "--r-max", "5", "--t", "2")
    code, out, _ = run_cli(capsys, *base)
    kept = out.splitlines()
    code, out, _ = run_cli(capsys, *base, "--include-not-tlc")
    everything = out.splitlines()
    assert len(kept) == 1 and len(everything) > len(kept)
    flagged = [json.loads(line) for line in everything]
    assert sum(1 for d in flagged if d["certificate"]["case"] == "not_tlc") == (
        len(everything) - len(kept)
    )


def test_lawrence_sweep_verifies(capsys, tmp_path):
    # The index <= 10 sweep holds pair (equals_intersection) records; index <= 3 none.
    for index_max in (3, 10):
        code, out, _ = run_cli(
            capsys, "lawrence", "--index-max", str(index_max), "--p", "1", "--q", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(list(superlattices(index_max)))
        kinds = {json.loads(line)["lawrence"]["kind"] for line in lines}
        assert ("equals_intersection" in kinds) == (index_max == 10)
        sweep = tmp_path / "lawrence.jsonl"
        sweep.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--in", str(sweep))
        assert code == 0
        assert out == f"verified {len(lines)} records\n"


def test_lawrence_single_type(capsys):
    code, out, _ = run_cli(capsys, "lawrence", "--type", "5,1,1", "--p", "1", "--q", "2")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [5, 1, 1]
    assert data["lawrence"] == {"kind": "hit", "e": ["1/5", "1/5"]}


def test_complement_records_verify(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "complement", "--type", "5,1,1", "--p", "1", "--q", "3")
    assert code == 0
    standard = json.loads(out)
    assert standard["complement"] == {"n": 3, "boundary": ["1/3", "0"], "witness": ["2", "3"]}

    code, bounded_out, _ = run_cli(capsys, "complement", "--type", "5,1,1", "--bounded")
    assert code == 0
    bounded = json.loads(bounded_out)
    assert bounded["complement"]["n"] == 3
    assert "p" not in bounded

    comp_path = tmp_path / "complements.jsonl"
    comp_path.write_text(dumps(standard) + "\n" + dumps(bounded) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--in", str(comp_path))
    assert code == 0
    assert out == "verified 2 records\n"


def test_complement_below_target_exits_one(capsys):
    code, _, err = run_cli(capsys, "complement", "--type", "5,1,1", "--p", "1", "--q", "2")
    assert code == 1
    assert "below the target" in err


def _complements(ty, *runs):
    return "; ".join(f"complement --type {ty} {run}" for run in runs)


_REACHABLE = ("--p 1 --q 3", "--p 2 --q 5", "--bounded")
_HALF_REACHABLE = tuple(f"--boundary 1/2,0 {run}" for run in _REACHABLE)

# One classify per shape of the case analysis: case a and case b, bounded
# and unbounded slices, alpha = 0 and alpha > 0, psi_prime = 0 and > 0,
# psi on either axis, a record below its threshold and large orders; then
# one lawrence record of each kind (hit, containment, pair).
_CLASSIFY = (
    "classify --type 2,1,1 --t 1/2",
    "classify --type 2,1,1 --boundary 0,1/2 --t 3/4",
    "classify --type 3,1,1 --boundary 1/2,0 --t 1/2",
    "classify --type 3,1,1 --t 2/3",
    "classify --type 2,1,1 --boundary 0,2/3 --t 2/3",
    "classify --type 7,1,3 --t 1",
    "classify --type 5,1,2 --boundary 1,1/2 --t 1/4",
    "classify --type 7,1,3 --boundary 1/2,1 --t 1/3",
    "classify --type 1000003,1,7 --t 1/7",
    "classify --type 1000003,1,7 --boundary 1/2,1/3 --t 1/7",
    "classify --type 1000003,1,7 --boundary 1,1/2 --t 1/7",
    "classify --type 1000000000000,1,7 --t 1/8",
    "classify --type 1000000000000,1,7 --boundary 1/3,1/2 --t 1/8",
    "classify --type 1000000000000,1,7 --boundary 1/2,1 --t 1/8",
    "lawrence --type 5,1,1 --p 1 --q 2",
    "lawrence --type 2,1,1 --p 1 --q 2",
    "lawrence --type 5,1,2 --p 2 --q 5",
)

# sha256 of the stdout of sweeps whose bytes must not change: digests
# taken before the lattice core moved to integers (the complement and
# p/q = 2/5 entries: before the lawrence and complement checkers were
# shared with `verify`; the cyclic sweeps without --include-not-tlc:
# before they walked Hirzebruch-Jung chains; the unreduced complement
# ratios: when p/q was first reduced, equal to the --p 1 --q 3 record
# but for p and q; the classify list: before the case analysis moved to
# integers; the zero-psi mld: before `residues` listed the quotient by
# its columns; the order-801 bounded complement: before its level and
# covector were read off the dual sail; the order 10^12 + 39 bounded
# complement: when its checker still ran the oracle, from the same
# construction, which then refused it). Commands joined by "; " are
# hashed as one concatenated stdout. A change to any record, its field
# order or its formatting shows up here.
PINNED_SWEEPS = [
    (
        "enumerate --mode cyclic --r-max 60 --t 1/2 --boundary-set file --include-not-tlc",
        "9e62b00fad357d583745a3ac8e6979a7e2d9b7e1c429860623425dbc91b34f6b",
    ),
    (
        "enumerate --mode cyclic --r-max 300 --t 1/3",
        "9a7f1ccdd5cdb45216df8c5a3f64aa6ad8d464eb360d6d2e6a75db0ad9a75f8a",
    ),
    (
        "enumerate --mode cyclic --r-max 120 --t 1/4 --boundary-set file",
        "bc470ed5e025018858b7a3c9db18ce37a22137a26abd6147e2ca8bfd328f955e",
    ),
    (
        "enumerate --mode all --index-max 8 --boundary-set standard --t 1/4 --include-not-tlc",
        "edfef59cb0461a65d92a6dc929620ece412981e7caa60bd77e5337feda15a7a6",
    ),
    (
        "enumerate --mode all --index-max 8 --boundary-set standard --t 1/4",
        "e41476b5542d944a511704bc5ccb51647da7dce278b7735a551a6d11e3951de5",
    ),
    (
        "enumerate --mode all --index-max 8 --boundary-set standard --t 1/4 --include-not-tlc"
        " --format csv",
        "e4e633fd756564d312a21e0aff39f1963dcba423e6e657ba1f9e3c8295ec6216",
    ),
    (
        "lawrence --index-max 12 --p 1 --q 2",
        "f12e0e708dd3cfa03cdd259b839a46979503a62f51787863cbe3d156c882ce9d",
    ),
    (
        "lawrence --index-max 20 --p 2 --q 5",
        "f9c841439da6ad6d90ea75bc0855e97a22dd571f4163504c64cbbb3a61b7ffca",
    ),
    (
        _complements("5,1,1", *_REACHABLE, "--boundary 1/2,0 --bounded"),
        "7bc69a947fd1337e0baf0beb787f3cbc79d098af1189a1d23476ddd4f02bef0a",
    ),
    (
        _complements("7,1,3", *_REACHABLE, *_HALF_REACHABLE),
        "9dbfd82583ec132ee2f5a30b8225e87aa6d496cb094ada99db40c1cb4e7bab02",
    ),
    (
        _complements("7,1,3", "--p 2 --q 6", "--p 3 --q 9"),
        "918855c452c784e6603fbc134b4f4e3c45bd65541714d55ec74181129d24ff37",
    ),
    (
        _complements("30,1,11", "--bounded", "--boundary 1/2,0 --bounded"),
        "573a4c78c5816a9d2802081d6089a2607365c197aed64ca47b9b796ef9d188b3",
    ),
    (
        "complement --type 801,1,1 --bounded",
        "309b3cb2e767bb8686ec8fed279d59a1fc42ad6e71285a69ca4e14a0f28d57dc",
    ),
    (
        "complement --type 1000000000039,1,1 --bounded",
        "80446658fc11bf6202db5330a6210d50bd56b2e860f75900ce71997065cc5196",
    ),
    (
        _complements("97,1,96", *_REACHABLE, *_HALF_REACHABLE),
        "0783f2c1d59358e9f122877b1b8a5e100e1d0fff59a0e5d026ba7a55cd6900f0",
    ),
    (
        "enumerate --mode cyclic --r-max 200 --t 1/2",
        "d43c136c2bea736ac8c1b1ca97af49a7cf5cd35822369aefbf424c585e498eec",
    ),
    (
        "classify --type 3,1,1 --t 2/3",
        "536d2e6916a384ac1f04d06d3c49bec05c8ecef73ece4a915de63ff43f3406c1",
    ),
    (
        "; ".join(_CLASSIFY),
        "ed17140f3c5d04ab3a344333acd8086c39175d2eb144ec3916324c2ee5229bf4",
    ),
    (
        "mld --type 10007,1,7 --boundary 1,1",
        "09ca9d2453efe2aa8d7eb83584c457713648b727d6208e9e7e644c8ece05ae32",
    ),
]


def test_sweep_output_bytes_are_pinned(capsys, tmp_path):
    boundary_file = tmp_path / "asymmetric.json"
    boundary_file.write_text('[["0","1/2"],["1/3","0"],["1/2","1/2"]]\n', encoding="utf-8")
    for commands, digest in PINNED_SWEEPS:
        out = ""
        for command in commands.split("; "):
            argv = command.split()
            if "file" in argv:
                argv += ["--boundary-file", str(boundary_file)]
            code, run_out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), command
            out += run_out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, commands


def test_optimized_ci_step_checks_pinned_digests():
    # The workflow reruns pinned commands under python -O, where an
    # `assert` would vanish; its digests must be pinned ones.
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
    text = workflow.read_text(encoding="utf-8")
    digests = re.findall(r"\b[0-9a-f]{64}\b", text)
    assert "python -O -m toricmld" in text and len(digests) == 8
    assert set(digests) <= {digest for _, digest in PINNED_SWEEPS}

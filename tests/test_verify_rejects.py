"""What `verify` says about each tampered field of a record.

One classification record per certificate case, and complement and
lawrence records, one tampering per field: each gets its exact exit
code and stderr line. Decoding problems exit 1 before any check runs; a
record that decodes but fails a check exits 2. The classification
tamperings give the same answers after a valid record of the same
lattice, when the run's shared lattice entry and literal dict are warm.
"""

import json
from fractions import Fraction

import pytest

from toricmld import cli
from toricmld.cli import main
from toricmld.records import dumps

# One record of each certificate case; each has a nonempty series list.
RECORDS = {
    "a": ("classify", "--type", "3,1,1", "--boundary", "0,1/2", "--t", "1/4"),
    "b": ("classify", "--type", "3,1,2", "--boundary", "1/2,4/5", "--t", "1/4"),
    "not_tlc": ("classify", "--type", "3,1,1", "--boundary", "1/2,1", "--t", "1/4"),
}
WITNESS = {"a": "m", "b": "m1", "not_tlc": "e"}


def _wrong_mld(data):
    data["mld"] = str(Fraction(data["mld"]) + 1)


def _unreduced_mld(data):
    value = Fraction(data["mld"])
    data["mld"] = f"{2 * value.numerator}/{2 * value.denominator}"


def _boundary(i, text):
    def mutate(data):
        data["germ"]["boundary"][i] = text

    return mutate


def _put(key, value):
    def mutate(data):
        data[key] = value

    return mutate


def _series_id(value):
    def mutate(data):
        data["series"][0][0] = value

    return mutate


def _zero_witness(data):
    cert = data["certificate"]
    cert[WITNESS[cert["case"]]] = ["0", "0"]


def _extra_series_id(data):
    data["series"].append([999, 999])


def _undecodable_and_wrong(data):
    _wrong_mld(data)
    data["certificate"]["case"] = "z"


CHECK = "verification failure: line 1: "
ERROR = "error: line 1: "

# name -> (tampering, exit code, stderr line, or per-case lines by certificate case).
MATRIX = {
    "wrong mld": (_wrong_mld, 2, CHECK + "recorded mld disagrees with the oracle"),
    "unreduced equal mld": (_unreduced_mld, 0, None),
    "boundary above one": (
        _boundary(0, "3/2"), 1, ERROR + "boundary coefficient b1 must lie in [0, 1]: 3/2"
    ),
    "boundary below zero": (
        _boundary(1, "-1/3"), 1, ERROR + "boundary coefficient b2 must lie in [0, 1]: -1/3"
    ),
    "threshold zero": (_put("t", "0"), 1, ERROR + "threshold must be positive: 0"),
    "series id true": (_series_id(True), 1, ERROR + "series id must be a JSON integer: True"),
    "series id float": (_series_id(1.0), 1, ERROR + "series id must be a JSON integer: 1.0"),
    "series id string": (_series_id("1"), 1, ERROR + "series id must be a JSON integer: '1'"),
    "series id not a pair": (
        lambda data: data["series"].__setitem__(0, [1]), 1, ERROR + "not a series id: [1]"
    ),
    "germ not an object": (_put("germ", "g"), 1, ERROR + "not a germ record: 'g'"),
    "certificate not an object": (
        _put("certificate", "a"), 1, ERROR + "not a certificate record: 'a'"
    ),
    "malformed literal": (_put("mld", "1/0"), 1, ERROR + "not a rational literal: '1/0'"),
    "literal not a string": (_put("mld", ["1"]), 1, ERROR + "not a rational literal: ['1']"),
    "missing key": (lambda data: data.pop("t"), 1, ERROR + "record misses key 't'"),
    "zero witness": (
        _zero_witness,
        2,
        {
            "a": CHECK + "certificate rejected: witness covector is zero",
            "b": CHECK + "certificate rejected: pair covectors are linearly dependent",
            "not_tlc": CHECK
            + "certificate rejected: violating point is not interior to the quadrant",
        },
    ),
    "extra series id": (
        _extra_series_id, 2, CHECK + "series memberships disagree with recomputation"
    ),
    "decode error and wrong mld": (
        _undecodable_and_wrong, 1, ERROR + "unknown certificate case: 'z'"
    ),
}


def _verify(capsys, tmp_path, data):
    path = tmp_path / "tampered.jsonl"
    path.write_text(dumps(data) + "\n")
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _record(capsys, case):
    assert main(list(RECORDS[case])) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certificate"]["case"] == case and data["series"]
    return data


@pytest.mark.parametrize("case", RECORDS)
@pytest.mark.parametrize("name", MATRIX)
def test_verify_reject_matrix(capsys, tmp_path, case, name):
    tamper, code, line = MATRIX[name]
    data = _record(capsys, case)
    tamper(data)
    if isinstance(line, dict):
        line = line[case]
    if code == 0:
        assert _verify(capsys, tmp_path, data) == (0, "verified 1 records\n", "")
    else:
        assert _verify(capsys, tmp_path, data) == (code, "", line + "\n")


def _holds_no_run_state():
    return cli._run is None and not any(
        isinstance(value, cli._VerifyRun) for value in vars(cli).values()
    )


@pytest.mark.parametrize("case", RECORDS)
@pytest.mark.parametrize("name", MATRIX)
def test_verify_reject_matrix_after_a_valid_record_of_the_lattice(capsys, tmp_path, case, name):
    # The untampered record comes first, so the tampered one meets a warm
    # run: its lattice entry is shared and every literal of the valid
    # record is already read. Each case keeps its exit code and its
    # stderr line, on line 2, and no run state outlives the call.
    tamper, code, line = MATRIX[name]
    valid = _record(capsys, case)
    data = json.loads(dumps(valid))
    tamper(data)
    if isinstance(line, dict):
        line = line[case]
    path = tmp_path / "warm.jsonl"
    path.write_text(dumps(valid) + "\n" + dumps(data) + "\n")
    got = main(["verify", "--in", str(path)]), *capsys.readouterr()
    if code == 0:
        assert got == (0, "verified 2 records\n", "")
    else:
        assert got == (code, "", line.replace("line 1: ", "line 2: ") + "\n")
    assert _holds_no_run_state()


def _both(*mutations):
    def mutate(data):
        for mutation in mutations:
            mutation(data)

    return mutate


# Two decoding problems at once: the fields decode in the order series,
# germ (boundary literals, lattice, boundary range), t, mld, certificate,
# so the first field's error is the one reported.
FIRST_ERROR = {
    "series before boundary": (
        _both(_series_id(1.0), _boundary(0, "3/2")), "series id must be a JSON integer: 1.0"
    ),
    "boundary literal before lattice": (
        _both(_boundary(0, "x"), lambda data: data["germ"]["lattice"].pop()),
        "not a rational literal: 'x'",
    ),
    "lattice before boundary range": (
        _both(_boundary(0, "3/2"), lambda data: data["germ"]["lattice"].pop()),
        "lattice generators do not span the plane",
    ),
    "boundary before threshold": (
        _both(_boundary(0, "3/2"), _put("t", "0")),
        "boundary coefficient b1 must lie in [0, 1]: 3/2",
    ),
    "threshold before mld": (
        _both(_put("t", "0"), _put("mld", "1/0")), "threshold must be positive: 0"
    ),
    "mld before certificate": (
        _both(_put("mld", "1/0"), lambda data: data["certificate"].update(case="z")),
        "not a rational literal: '1/0'",
    ),
}


@pytest.mark.parametrize("name", FIRST_ERROR)
def test_verify_reports_the_first_field_that_does_not_decode(capsys, tmp_path, name):
    tamper, message = FIRST_ERROR[name]
    data = _record(capsys, "b")
    tamper(data)
    assert _verify(capsys, tmp_path, data) == (1, "", ERROR + message + "\n")


def test_verify_accepts_unreduced_equal_literals(capsys, tmp_path):
    # Decoding reduces every literal, so "2/4" reads as 1/2 in any field.
    data = _record(capsys, "b")
    data["germ"]["boundary"] = ["2/4", "8/10"]
    data["t"] = "3/12"
    data["mld"] = "6/20"
    assert _verify(capsys, tmp_path, data) == (0, "verified 1 records\n", "")


# The other record kinds: a bounded and a standard complement of 1/5(1,1),
# n = 3 with witness (2, 3) and, at 2/5, n = 5 with witness (5, 5), the
# lawrence hit at (1/5, 1/5), and the pair (1, 3), (3, 1) with weights
# 1, 1 of 1/8(1,5), the first equals_intersection record of
# `lawrence --index-max 12 --p 1 --q 2`.
OTHER_RECORDS = {
    "bounded": ("complement", "--type", "5,1,1", "--bounded"),
    "standard": ("complement", "--type", "5,1,1", "--p", "2", "--q", "5"),
    "lawrence": ("lawrence", "--type", "5,1,1", "--p", "1", "--q", "2"),
    "pair": ("lawrence", "--type", "8,1,5", "--p", "1", "--q", "2"),
}


def _complement(**fields):
    def mutate(data):
        data["complement"].update(fields)

    return mutate


def _lawrence(**fields):
    def mutate(data):
        data["lawrence"].update(fields)

    return mutate


# (record, tampering, exit code, stderr line).
OTHER_MATRIX = {
    "level zero": (
        "bounded", _complement(n=0), 2, CHECK + "complement rejected: level must be positive"
    ),
    "level negative": (
        "standard", _complement(n=-5), 2, CHECK + "complement rejected: level must be positive"
    ),
    "witness off the boundary": (
        "bounded",
        _complement(witness=["1", "4"]),
        2,
        CHECK + "complement rejected: witness does not match the scaled boundary complement",
    ),
    "zero witness, bounded": (
        "bounded",
        _complement(boundary=["1", "1"], witness=["0", "0"]),
        2,
        CHECK + "complement rejected: witness is zero, so the value at witness/n is zero",
    ),
    # (4, 1) is in the dual of 1/5(1,1), and (1/5, 1/5) pairs with (4, 1)/5
    # to 1/5 < 2/5: the certificate at witness/n is that point.
    "witness lowered below the target": (
        "standard",
        _complement(boundary=["1/5", "4/5"], witness=["4", "1"]),
        2,
        CHECK + "complement rejected: value at witness/n is below the target ratio",
    ),
    "zero witness, standard": (
        "standard",
        _complement(boundary=["1", "1"], witness=["0", "0"]),
        2,
        CHECK + "complement rejected: witness is zero, so the value at witness/n is zero",
    ),
    # Each witness below comes with the boundary 1 - witness/n it implies.
    "witness not integral": (
        "bounded",
        _complement(boundary=["5/6", "0"], witness=["1/2", "3"]),
        2,
        CHECK + "complement rejected: witness is not integral",
    ),
    "witness outside the dual": (
        "bounded",
        _complement(boundary=["2/3", "1"], witness=["1", "0"]),
        2,
        CHECK + "complement rejected: witness does not pair integrally with the lattice",
    ),
    "boundary below the germ's": (
        "bounded",
        _complement(boundary=["-2/3", "1"], witness=["5", "0"]),
        2,
        CHECK + "complement rejected: boundary out of range",
    ),
    "pair dependent": (
        "pair",
        _lawrence(m2=["1", "3"]),
        2,
        CHECK + "certificate rejected: pair covectors are dependent",
    ),
    # (1, 3) and (6, 2) are independent, but their locus properly contains the lattice.
    "pair presents another subgroup": (
        "pair",
        _lawrence(m2=["6", "2"]),
        2,
        CHECK + "certificate rejected: subgroup is not the pair's integrality locus",
    ),
    # Weights 2, 1 average to (5/3, 7/3), outside [0, 2]^2.
    "pair average outside the box": (
        "pair",
        _lawrence(k1=2),
        2,
        CHECK + "certificate rejected: weighted average escapes the box",
    ),
    "complement germ not an object": (
        "bounded", _put("germ", []), 1, ERROR + "not a germ record: []"
    ),
    "complement not an object": (
        "standard", _put("complement", "x"), 1, ERROR + "not a complement record: 'x'"
    ),
    "lawrence not an object": (
        "lawrence", _put("lawrence", 3), 1, ERROR + "not a simplex-avoidance record: 3"
    ),
    "lawrence kind unknown": (
        "lawrence", _lawrence(kind="z"), 1, ERROR + "unknown simplex-avoidance kind: 'z'"
    ),
}


@pytest.mark.parametrize("name", OTHER_MATRIX)
def test_verify_reject_matrix_of_other_kinds(capsys, tmp_path, name):
    kind, tamper, code, line = OTHER_MATRIX[name]
    assert main(list(OTHER_RECORDS[kind])) == 0
    data = json.loads(capsys.readouterr().out)
    assert _verify(capsys, tmp_path, data) == (0, "verified 1 records\n", "")
    tamper(data)
    assert _verify(capsys, tmp_path, data) == (code, "", line + "\n")

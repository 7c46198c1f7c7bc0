"""The canonical candidate stream against its definition.

`candidate_germs` builds cyclic lattices and their swaps from (r, w) and
compares integer forms; the definition here builds every lattice with
`lattice_from_generators`, swaps it with `swapped_lattice`, keeps the
least (basis, b1, b2) key in Fractions and dedupes first-seen.
Property tests are seeded (`derandomize=True`), so every run draws the
same examples. The pruned cyclic sweep, which walks Hirzebruch-Jung
chains under Borisov's excess bound, is checked against the full
stream: its lattices are those within the budget, in the same order,
and its germs are those that reach the threshold. A sweep does its
lattice work once per lattice and builds psi once per boundary pair;
it encodes each part of its records once, and `verify` parses each
distinct literal once.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricmld.certify
import toricmld.germs
import toricmld.records
from toricmld.certify import ClassifiedGerm, _cyclic_forms, candidate_germs, enumerate_germs
from toricmld.cli import STANDARD_BOUNDARY_VALUES, main
from toricmld.germs import germ_psi, sail_minimum
from toricmld.lattices import (
    E1,
    E2,
    lattice_from_generators,
    sublattices_of_standard,
    swapped_lattice,
)

ZERO = [(Fraction(0), Fraction(0))]
STANDARD = [(a, b) for a in STANDARD_BOUNDARY_VALUES for b in STANDARD_BOUNDARY_VALUES]
ASYMMETRIC = [
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
]


def _lattices(mode, bound):
    """The lattices of the sweep, in order, built from rational generators."""
    if mode == "cyclic":
        return [
            lattice_from_generators([E1, E2, (Fraction(1, r), Fraction(w, r))])
            for r in range(1, bound + 1)
            for w in range(1, r + 1)
            if math.gcd(w, r) == 1 and (w < r or r == 1)
        ]
    out = []
    for n in range(1, bound + 1):
        for sub in sublattices_of_standard(n):
            # Dual of the integer sublattice ((a, b), (0, d)): the covectors
            # (1/a, 0) and (-b/(a*d), 1/d).
            (a, b), (_, d) = sub.basis
            out.append(lattice_from_generators([(1 / a, 0), (-b / (a * d), 1 / d)]))
    return out


def _definition(mode, bound, boundaries):
    """(lattice, b1, b2) of each canonical germ, in first-seen order."""
    out, seen = [], set()
    for lat in _lattices(mode, bound):
        swap = swapped_lattice(lat)
        for b1, b2 in boundaries:
            b1, b2 = Fraction(b1), Fraction(b2)
            own, swapped = (lat.basis, b1, b2), (swap.basis, b2, b1)
            key = min(own, swapped)
            if key not in seen:
                seen.add(key)
                out.append((lat, b1, b2) if key == own else (swap, b2, b1))
    return out


def _check_stream(mode, bound, boundaries):
    got = [(g.lattice, g.b1, g.b2) for g in candidate_germs(mode, bound, boundaries)]
    expected = _definition(mode, bound, boundaries)
    assert [(lat.basis, b1, b2) for lat, b1, b2 in got] == [
        (lat.basis, b1, b2) for lat, b1, b2 in expected
    ]
    assert got == expected


@pytest.mark.parametrize(
    "boundaries", [ZERO, STANDARD, ASYMMETRIC], ids=["zero", "standard", "asymmetric"]
)
@pytest.mark.parametrize("mode, bound", [("cyclic", 80), ("all", 10)])
def test_candidate_stream_matches_its_definition(mode, bound, boundaries):
    _check_stream(mode, bound, boundaries)


COEFFICIENTS = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1)]
)


@settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from([("cyclic", 30), ("all", 6)]),
    st.lists(st.tuples(COEFFICIENTS, COEFFICIENTS), min_size=1, max_size=6),
)
def test_candidate_stream_matches_its_definition_on_drawn_boundaries(sweep, boundaries):
    _check_stream(*sweep, boundaries)


def test_asymmetric_boundaries_reach_both_sides_of_the_swap():
    # 1/5(1, 2) and 1/5(1, 3) are swaps of each other; with (0, 1/2)
    # listed but not (1/2, 0), the second yields a germ of its own.
    germs = list(candidate_germs("cyclic", 5, ASYMMETRIC[:1]))
    order_five = [g for g in germs if g.lattice.basis[0].x1 == Fraction(1, 5)]
    assert [(g.lattice.basis[0].x2, g.b1, g.b2) for g in order_five] == [
        (Fraction(1, 5), 0, Fraction(1, 2)),
        (Fraction(2, 5), 0, Fraction(1, 2)),
        (Fraction(2, 5), Fraction(1, 2), 0),
        (Fraction(4, 5), 0, Fraction(1, 2)),
    ]


def _excess(r, w):
    """Excess sum(c_i - 2) of the Hirzebruch-Jung chain r/w = [c_1, ..., c_k]."""
    excess = 0
    while w:
        c = -(-r // w)
        excess += c - 2
        r, w = w, c * w - r
    return excess


@pytest.mark.parametrize("r_max", [1, 2, 3, 60])
def test_chain_walk_is_the_plain_loop_filtered_by_excess(r_max):
    full = list(_cyclic_forms(r_max))
    for form, swap, _ in full:
        assert _excess(form[0], form[2]) == _excess(swap[0], swap[2])
    for budget in range(-2, 8):
        expected = [f for f in full if f[0][0] == 1 or _excess(f[0][0], f[0][2]) <= budget]
        assert list(_cyclic_forms(r_max, budget)) == expected, budget


def test_chain_walk_prunes():
    # 18,218 chains of excess at most 2 (t = 1/2, zero boundary) plus
    # the order-1 lattice, out of 304,192 forms with r <= 1000.
    assert sum(1 for _ in _cyclic_forms(1000, budget=2)) == 18_219


THRESHOLDS = [Fraction(1), Fraction(1, 2), Fraction(2, 5)] + [Fraction(1, n) for n in range(3, 7)]


@pytest.mark.parametrize(
    "boundaries, bound",
    [(ZERO, 300), (STANDARD, 30), (ASYMMETRIC, 120)],
    ids=["zero", "standard", "asymmetric"],
)
def test_pruned_sweep_keeps_every_germ_reaching_the_threshold(monkeypatch, boundaries, bound):
    # The claim is about which germs the sweep reaches, so each germ is
    # classified by its exact value alone; the records of kept germs are
    # pinned byte for byte in tests/test_cli.py. The sweep passes the
    # minimum, psi and lattice work it has already taken; the value is
    # taken afresh here.
    def value_only(germ, t, minimum=None, psi=None, work=None):
        return ClassifiedGerm(germ, t, sail_minimum(germ.lattice, germ_psi(germ)).value, None, [])

    monkeypatch.setattr(toricmld.certify, "classify_germ_record", value_only)
    full = [value_only(germ, None) for germ in candidate_germs("cyclic", bound, boundaries)]
    for t in THRESHOLDS:
        got = [(r.germ, r.mld) for r in enumerate_germs("cyclic", bound, t, boundaries)]
        assert got == [(r.germ, r.mld) for r in full if r.mld >= t], t


def test_sweep_does_lattice_work_once_per_lattice(monkeypatch, tmp_path):
    # The benchmark's mixed sweep: 546 germs on 15 lattices and 49 boundary
    # pairs. The series list and the type label depend on the lattice only,
    # psi on the boundary pair only, and no covector is taken apart.
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(toricmld.certify, "series_membership_lattice")
    count(toricmld.records, "cyclic_type")
    count(toricmld.certify, "scaled_psi")
    for module in (toricmld.certify, toricmld.germs):
        count(module, "_scaled_covector")
    out = tmp_path / "mixed.jsonl"
    argv = ["enumerate", "--mode", "all", "--index-max", "5", "--boundary-set", "standard"]
    assert main([*argv, "--t", "1/4", "--include-not-tlc", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    lattices = {json.dumps(record["germ"]["lattice"]) for record in records}
    assert (len(records), len(lattices)) == (546, 15)
    assert counts == {"series_membership_lattice": 15, "cyclic_type": 15, "scaled_psi": 49}


def _logging(monkeypatch, module, name, log):
    """Replace module.name by a wrapper that appends each call's arguments to log."""
    real = getattr(module, name)

    def logged(*args):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, logged)


def test_sweep_encodes_each_part_once_and_verify_parses_each_literal_once(monkeypatch, tmp_path):
    # The same mixed sweep: its records are written from text built once
    # per part, t once, each of the 49 boundary pairs once, and each
    # lattice's rows, type label and series list once; `verify` reads
    # each distinct literal of the file once.
    formatted, rows, labels, series, parsed = [], [], [], [], []
    _logging(monkeypatch, toricmld.records, "format_rational", formatted)
    _logging(monkeypatch, toricmld.records, "lattice_to_json", rows)
    _logging(monkeypatch, toricmld.records, "cyclic_type", labels)
    _logging(monkeypatch, toricmld.records, "_series_text", series)
    out = tmp_path / "mixed.jsonl"
    argv = ["enumerate", "--mode", "all", "--index-max", "5", "--boundary-set", "standard"]
    assert main([*argv, "--t", "1/4", "--include-not-tlc", "--out", str(out)]) == 0
    assert len(formatted) == 1 + 2 * 49 and formatted[0] == (Fraction(1, 4),)
    pairs = list(zip(formatted[1::2], formatted[2::2]))
    assert len(pairs) == len(set(pairs)) == 49
    assert len(rows) == len(labels) == len(series) == 15
    assert len({lat for (lat,) in rows}) == 15

    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    literals = set()
    for record in records:
        germ, certificate = record["germ"], record["certificate"]
        literals.update(x for row in germ["lattice"] for x in row)
        literals.update(germ["boundary"], (record["t"], record["mld"]))
        for key, value in certificate.items():
            if key != "case":
                literals.update(value if isinstance(value, list) else [value])
    assert (len(records), len(literals)) == (546, 133)
    _logging(monkeypatch, toricmld.records, "parse_ratio", parsed)
    assert main(["verify", "--in", str(out)]) == 0
    assert sorted(text for (text,) in parsed) == sorted(literals)

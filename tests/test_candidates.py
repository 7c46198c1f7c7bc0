"""The canonical candidate stream against its definition.

`candidate_germs` builds cyclic lattices and their swaps from (r, w) and
compares integer forms; the definition here builds every lattice with
`lattice_from_generators`, swaps it with `swapped_lattice`, keeps the
least (basis, b1, b2) key in Fractions and dedupes first-seen.
Property tests are seeded (`derandomize=True`), so every run draws the
same examples. The pruned cyclic sweep, which walks Hirzebruch-Jung
chains under Borisov's excess bound and skips the chains below one
proven to fail every boundary pair, is checked against the full
stream: its lattices are those within the budget, in the same order,
and its germs are those that reach the threshold. The walk takes each
chain's cut by `send`. The lemma the skip rests on is checked against
the oracle. A sweep does its lattice work once per lattice and builds
psi once per boundary pair; it encodes each part of its records once,
and `verify` parses each distinct literal once.
"""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricmld.certify
import toricmld.germs
import toricmld.records
from toricmld.certify import (
    ClassifiedGerm,
    NotTLC,
    _cyclic_forms,
    candidate_germs,
    certificate_from_case_data,
    enumerate_germs,
    lawrence,
)
from toricmld.cli import STANDARD_BOUNDARY_VALUES, main
from toricmld.germs import case_analysis_lattice, germ_psi, sail_minimum, scaled_psi
from toricmld.lattices import (
    E1,
    E2,
    Lattice,
    lattice_from_generators,
    sublattices_of_standard,
    superlattices,
    swapped_lattice,
)
from toricmld.oracle import mld_oracle_scaled

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


def _drive(walk, cut_after):
    """The walk's forms, sending cut_after(form) after each form it yields."""
    got = []
    try:
        entry = next(walk)
        while True:
            got.append(entry)
            entry = walk.send(cut_after(entry[0]))
    except StopIteration:
        return got


def _parent(r, w):
    """(r', w') for the chain 1/r'(1, w') whose child is 1/r(1, w): r' = w, r = c*w - w'."""
    return w, -(-r // w) * w - r


def test_chain_walk_takes_its_cut_by_send():
    full = list(_cyclic_forms(60, budget=6))
    # Nothing sent is plain iteration.
    assert _drive(_cyclic_forms(60, budget=6), lambda form: None) == full
    # A cut of 0 after the root pushes none of its children.
    assert _drive(_cyclic_forms(60, budget=6), lambda form: 0) == full[:1]
    # A cut of 20 after 1/7(1, 3) drops its children 1/R(1, 7) with
    # R >= 20, and every chain below them, and nothing else.
    cut = _drive(_cyclic_forms(60, budget=6), lambda form: 20 if form == (7, 1, 3, 7) else None)

    def below_a_cut_child(r, w):
        while r > 1:
            if _parent(r, w) == (7, 3):
                return r >= 20
            r, w = _parent(r, w)
        return False

    # The children are 1/R(1, 7) for R = 11, 18, ..., 46 within the
    # budget; 1/43(1, 25) and 1/57(1, 32) are grandchildren.
    dropped = [f for f in full if below_a_cut_child(f[0][0], f[0][2])]
    assert [(f[0][0], f[0][2]) for f in dropped] == [
        (25, 7), (32, 7), (39, 7), (43, 25), (46, 7), (57, 32)
    ]
    assert cut == [f for f in full if f not in dropped]


@pytest.mark.parametrize("mode", ["cyclic", "all"])
@pytest.mark.parametrize("include_not_tlc", [False, True])
def test_a_sweep_over_no_boundary_pair_yields_nothing(mode, include_not_tlc):
    assert list(candidate_germs(mode, 10, [])) == []
    assert list(enumerate_germs(mode, 10, Fraction(1, 2), [], include_not_tlc)) == []


@pytest.mark.parametrize(
    "mode, message", [("cyclic", "order bound"), ("all", "index bound")]
)
@pytest.mark.parametrize("include_not_tlc", [False, True])
def test_a_bound_below_one_is_reported_before_a_pair_out_of_range(mode, message, include_not_tlc):
    bad = [(Fraction(3, 2), Fraction(0))]
    expected = f"{message} must be a positive integer: 0"
    with pytest.raises(ValueError, match=expected):
        candidate_germs(mode, 0, bad)
    with pytest.raises(ValueError, match=expected):
        enumerate_germs(mode, 0, Fraction(1, 2), bad, include_not_tlc)
    with pytest.raises(ValueError, match=r"b1 must lie in \[0, 1\]: 3/2"):
        enumerate_germs(mode, 1, Fraction(1, 2), bad, include_not_tlc)


THRESHOLDS = [Fraction(1), Fraction(1, 2), Fraction(2, 5)] + [Fraction(1, n) for n in range(3, 7)]


# Coefficients 1 give p1 = 0, p2 = 0 and the zero psi.
ONES = [
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(5, 6)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(0)),
]


# (0, 5/6) has p1 = 1 > (R - r)*p2 whenever R - r < 6; the skip rule
# once required p1 <= (R - r)*p2 at every pair, and cut less here.
SMALL_P2 = [*ASYMMETRIC, (Fraction(0), Fraction(5, 6))]


@pytest.mark.parametrize(
    "boundaries, bound",
    [(ZERO, 300), (STANDARD, 30), (ASYMMETRIC, 120), (ONES, 120), (SMALL_P2, 120)],
    ids=["zero", "standard", "asymmetric", "ones", "small-p2"],
)
def test_pruned_sweep_keeps_every_germ_reaching_the_threshold(monkeypatch, boundaries, bound):
    # The claim is about which germs the sweep reaches, so each germ is
    # classified by its exact value alone; the records of kept germs are
    # pinned byte for byte in tests/test_cli.py. The sweep passes the
    # minimum, psi and series list it has already taken; the value is
    # taken afresh here.
    def value_only(germ, t, minimum=None, psi=None, series=None):
        return ClassifiedGerm(germ, t, sail_minimum(germ.lattice, germ_psi(germ)).value, None, [])

    monkeypatch.setattr(toricmld.certify, "classify_germ_record", value_only)
    full = [value_only(germ, None) for germ in candidate_germs("cyclic", bound, boundaries)]
    for t in THRESHOLDS:
        got = [(r.germ, r.mld) for r in enumerate_germs("cyclic", bound, t, boundaries)]
        assert got == [(r.germ, r.mld) for r in full if r.mld >= t], t


def _minima(monkeypatch, *args, **kwargs):
    """(sail_minimum calls, records) of enumerate_germs("cyclic", ...)."""
    calls = []
    real = toricmld.certify.sail_minimum

    def counting(*call):
        calls.append(call)
        return real(*call)

    monkeypatch.setattr(toricmld.certify, "sail_minimum", counting)
    kept = sum(1 for _ in enumerate_germs("cyclic", *args, **kwargs))
    monkeypatch.undo()
    return len(calls), kept


def test_cyclic_sweep_classifies_few_germs_below_the_threshold(monkeypatch):
    # Zero boundary at t = 1/2: the excess budget alone leaves 134 and
    # 9,913 germs to classify; skipping the chains below failing ones
    # leaves 86 and 2,246, for 70 and 1,750 records.
    half = Fraction(1, 2)
    assert _minima(monkeypatch, 40, half, ZERO) == (86, 70)
    assert _minima(monkeypatch, 1000, half, ZERO) == (2246, 1750)
    # --include-not-tlc has no budget: all 303 candidates are classified.
    assert _minima(monkeypatch, 40, half, ZERO, include_not_tlc=True) == (303, 303)
    # The standard set's 36 pairs: 20,223 germs classified while the rule
    # also asked p1 <= (R - r)*p2 at every pair, 12,348 without.
    assert _minima(monkeypatch, 150, half, STANDARD) == (12348, 659)


def _splits(monkeypatch, run):
    """(case_analysis_lattice calls, len(run())): how many certificates needed the split."""
    calls = []
    real = toricmld.certify.case_analysis_lattice

    def counting(*call):
        calls.append(call)
        return real(*call)

    monkeypatch.setattr(toricmld.certify, "case_analysis_lattice", counting)
    size = len(run())
    monkeypatch.undo()
    return len(calls), size


def test_only_pair_certificates_run_the_split(monkeypatch):
    # A single-covector certificate comes straight off the dual sail; the
    # adapted-basis split runs once per pair certificate, not once per
    # classified germ (70, 1,750 and 314 on the three sweeps below).
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def mixed():
        return list(enumerate_germs("all", 5, quarter, STANDARD, include_not_tlc=True))

    assert _splits(monkeypatch, lambda: list(enumerate_germs("cyclic", 40, half))) == (1, 70)
    assert _splits(monkeypatch, lambda: list(enumerate_germs("cyclic", 1000, half))) == (1, 1750)
    assert _splits(monkeypatch, mixed) == (50, 546)
    # lawrence at 1/2 splits only for its equals_intersection results, not
    # for its 463 containments.
    results = _splits(monkeypatch, lambda: [lawrence(lat, 1, 2) for lat in superlattices(60)])
    assert results == (15, 3014)


SPLIT_SWEEPS = [
    ("all", 16, Fraction(1, 2), STANDARD, True),
    ("all", 16, Fraction(1, 4), STANDARD, True),
    ("cyclic", 200, Fraction(1, 2), ZERO, False),
]


@pytest.mark.parametrize("sweep", SPLIT_SWEEPS, ids=["all-16-half", "all-16-quarter", "cyclic-200"])
def test_sweep_certificates_agree_with_the_full_case_analysis(sweep):
    # Every covector certificate of the sweep is the one the full case
    # analysis gives, so each split identity still runs on these germs.
    checked = 0
    for record in enumerate_germs(*sweep):
        if isinstance(record.certificate, NotTLC):
            continue
        lat, psi, t = record.germ.lattice, germ_psi(record.germ), record.t
        data = case_analysis_lattice(lat, psi, sail_minimum(lat, psi))
        full = certificate_from_case_data(lat, data, psi, (t.numerator, t.denominator))
        assert record.certificate == full, record.germ
        checked += 1
    assert checked


def _peak(germs):
    """tracemalloc's peak, in bytes, while the germs are drawn one by one."""
    tracemalloc.start()
    try:
        for _ in germs:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_germ_stream_keeps_dedupe_keys_for_one_index_at_a_time():
    # A germ and its swap have the same index, so the stream forgets the
    # keys of an index once the next begins. Keeping every key, the plain
    # r <= 300 stream (14,307 germs) peaked at 2.2 MB and the pruned
    # t = 1/2, r <= 2000 sweep (3,500 records) at 0.65 MB; now they peak
    # at about 16 KB and 0.11 MB.
    assert _peak(candidate_germs("cyclic", 300)) < 100_000
    assert _peak(enumerate_germs("cyclic", 2000, Fraction(1, 2))) < 300_000


BOUNDARY_VALUES = [Fraction(n, 6) for n in (0, 2, 3, 4, 5, 6)]  # 0, 1/3, 1/2, 2/3, 5/6, 1


@st.composite
def _chains(draw):
    """A chain 1/r(1, w), r < 70 (the order-1 root as (1, 0)), and c >= 2."""
    r = draw(st.integers(1, 69))
    w = draw(st.sampled_from([w for w in range(r) if math.gcd(w, r) == 1]))
    return r, w, draw(st.integers(2, 5))


def _value(r, w, psi):
    """The oracle's least pairing over the open quadrant points of 1/r(1, w), as a Fraction."""
    return Fraction(*mld_oracle_scaled(Lattice(hnf=(r, 1, w, r)), psi))


def test_skip_rule_lemmas_hold_against_the_oracle():
    # v(C) <= min(v(N), (p1 + r*p2)/R) for N = 1/r(1, w), C = 1/R(1, r),
    # R = c*r - w and every psi >= 0 (see certify._cyclic_forms). The
    # draws reach both halves of its proof, p1 <= (R - r)*p2 and not,
    # including psi with p2 > 0 in the second, which the rule once left out.
    reached = set()

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_chains(), st.sampled_from(BOUNDARY_VALUES), st.sampled_from(BOUNDARY_VALUES))
    def check(chain, b1, b2):
        r, w, c = chain
        big_r = c * r - w
        p1, p2 = 1 - b1, 1 - b2
        psi = scaled_psi((b1.numerator, b1.denominator), (b2.numerator, b2.denominator))
        child = _value(big_r, r, psi)
        assert child <= (p1 + r * p2) / big_r
        assert child <= _value(r, w, psi)
        cases = {
            "p2 = 0": p2 == 0,
            "psi = 0": p1 == p2 == 0,
            "p1 > (R - r)*p2 > 0": p1 > (big_r - r) * p2 > 0,
            "root": r == 1,
        }
        reached.update(name for name, hit in cases.items() if hit)

    check()
    assert reached == {"p2 = 0", "psi = 0", "p1 > (R - r)*p2 > 0", "root"}


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

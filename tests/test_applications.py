"""Geometric applications: value-one families, sections, complements."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricmld.certify
import toricmld.geometry
import toricmld.germs
import toricmld.lattices
import toricmld.oracle
from toricmld import (
    CaseA,
    CaseB,
    Complement,
    EqualsIntersection,
    Germ,
    NotTLC,
    VerificationFailure,
    bounded_complement,
    classify_tlc,
    germ_from_quotient_type,
    lawrence,
    mld,
)
from toricmld.certify import series_certificate_log, series_membership_lattice
from toricmld.geometry import (
    NotApplicable,
    ProductCase,
    QuotientCase,
    classify_mld_ge_one,
    complement_standard,
    half_mld_section,
    hyperplane_dichotomy,
    hyperplane_section,
    is_standard_coefficient,
    lct_invariant,
)
from toricmld.germs import case_analysis_lattice, germ_psi, make_germ, psi_of
from toricmld.lattices import (
    STANDARD_LATTICE,
    Sail,
    SailEdge,
    contains,
    dual,
    in_cone,
    lattice_from_generators,
    points_in_box,
    superlattices,
    vec,
)
from toricmld.oracle import ORACLE_LIMIT, mld_oracle_lattice, mld_oracle_value

from conftest import fraction_certificate

SMOOTH = make_germ(STANDARD_LATTICE, 0, 0)
FIFTH = germ_from_quotient_type(5, 1, 1)
CHAIN3 = germ_from_quotient_type(3, 2, 1)


def test_classify_mld_ge_one():
    assert classify_mld_ge_one(SMOOTH) == ProductCase(Fraction(2))
    light = make_germ(STANDARD_LATTICE, Fraction(1, 2), Fraction(1, 4))
    assert classify_mld_ge_one(light) == ProductCase(Fraction(5, 4))
    assert classify_mld_ge_one(CHAIN3) == QuotientCase(2)
    assert classify_mld_ge_one(germ_from_quotient_type(2, 1, 1)) == QuotientCase(1)
    assert classify_mld_ge_one(FIFTH) == NotApplicable()
    heavy = make_germ(STANDARD_LATTICE, Fraction(3, 4), Fraction(3, 4))
    assert classify_mld_ge_one(heavy) == NotApplicable()
    # A boundary on a chain quotient pushes the value below one.
    assert classify_mld_ge_one(germ_from_quotient_type(2, 1, 1, Fraction(1, 2), 0)) == (
        NotApplicable()
    )
    half_plane = lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    with pytest.raises(ValueError):
        classify_mld_ge_one(Germ(half_plane, Fraction(0), Fraction(0)))


def test_hyperplane_section_and_lct():
    section = hyperplane_section(SMOOTH, vec(1, 1))
    assert section == vec(1, 1)
    assert lct_invariant(SMOOTH, section) == 1
    assert lct_invariant(FIFTH, hyperplane_section(FIFTH, vec(2, 3))) == Fraction(1, 3)
    tilted = make_germ(STANDARD_LATTICE, Fraction(1, 2), 0)
    assert lct_invariant(tilted, hyperplane_section(tilted, vec(1, 0))) == Fraction(1, 2)
    with pytest.raises(ValueError):
        hyperplane_section(SMOOTH, vec(0, 0))
    with pytest.raises(ValueError):
        hyperplane_section(SMOOTH, vec(-1, 0))
    with pytest.raises(ValueError):
        hyperplane_section(FIFTH, vec(1, 1))


def test_hyperplane_dichotomy_examples():
    # Integral covectors (1, x, y) and reduced weights (num, den).
    assert hyperplane_dichotomy(SMOOTH) == CaseB((1, 0, 1), (1, 1, 0), (1, 1), (1, 1))
    assert hyperplane_dichotomy(CHAIN3) == CaseA((1, 1, 1))
    assert hyperplane_dichotomy(FIFTH) == CaseB((1, 2, 3), (1, 3, 2), (1, 5), (1, 5))
    edge = make_germ(STANDARD_LATTICE, 0, 1)
    assert hyperplane_dichotomy(edge) == CaseA((1, 1, 0))
    with pytest.raises(ValueError):
        hyperplane_dichotomy(make_germ(STANDARD_LATTICE, 1, 1))


def test_hyperplane_dichotomy_is_exact(standard_corpus):
    for germ in standard_corpus:
        psi = psi_of(germ)
        a = mld(germ)
        outcome = hyperplane_dichotomy(germ)
        assert outcome == classify_tlc(germ, a)
        cert = fraction_certificate(outcome)
        if isinstance(cert, CaseA):
            pushed = psi - cert.m.scaled(a)
            assert pushed.is_zero()
            assert mld_oracle_lattice(germ.lattice, pushed)[0] == 0
        else:
            assert cert.t1 + cert.t2 == a
            assert cert.m1.scaled(cert.t1) + cert.m2.scaled(cert.t2) == psi


def test_half_mld_section_examples():
    assert half_mld_section(SMOOTH) == vec(0, 1)
    assert half_mld_section(CHAIN3) == vec(1, 1)
    assert half_mld_section(FIFTH) == vec(2, 3)


def test_half_mld_section_property(standard_corpus):
    for germ in standard_corpus:
        pushed = psi_of(germ) - half_mld_section(germ).scaled(mld(germ) / 2)
        assert in_cone(pushed)
        assert mld_oracle_lattice(germ.lattice, pushed)[0] >= 0


def test_series_certificate_log_keeps_discrepancies_at_level(standard_corpus):
    # The accepted boundary 1 - m/n keeps every discrepancy at or above 1/n,
    # which the construction proves from m alone; the oracle agrees.
    accepted = 0
    for germ in standard_corpus:
        for t in (Fraction(1, k) for k in range(1, 11)):
            for m in series_membership_lattice(germ.lattice, t):
                m = vec(*m)
                result = series_certificate_log(germ, m, t)
                if result is not None:
                    n = result[0]
                    level_psi = vec(m.x1 / Fraction(n), m.x2 / Fraction(n))
                    assert mld_oracle_value(germ.lattice, level_psi) >= Fraction(1, n)
                    accepted += 1
    assert accepted > 400


def test_constructions_run_above_the_oracle_limit():
    # No construction runs the oracle, so an order far above ORACLE_LIMIT
    # costs what the Klein sail costs.
    r = 10**12 + 39
    assert r > ORACLE_LIMIT
    start = time.perf_counter()
    light = germ_from_quotient_type(r, 1, 1)
    half = (r - 1) // 2
    assert hyperplane_dichotomy(light) == CaseB(
        (1, half, half + 1), (1, half + 1, half), (1, r), (1, r)
    )
    assert half_mld_section(light) == vec(half, half + 1)
    assert series_certificate_log(light, vec(1, r - 1), Fraction(1, r)) == (
        r - 1,
        (Fraction(r - 2, r - 1), Fraction(0)),
    )
    chain = germ_from_quotient_type(r, 1, r - 1)
    assert hyperplane_dichotomy(chain) == CaseA((1, 1, 1))
    assert half_mld_section(chain) == vec(1, 1)
    assert series_certificate_log(chain, vec(1, 1), 1) == (1, (Fraction(0), Fraction(0)))
    n = (r + 1) // 2
    assert bounded_complement(light) == Complement(
        n, (Fraction(1, n), Fraction(0)), vec(n - 1, n)
    )
    assert complement_standard(light, 1, r) == Complement(
        r, (Fraction(n, r), Fraction(n - 1, r)), vec(n - 1, n)
    )
    assert complement_standard(chain, 1, 2) == Complement(
        2, (Fraction(1, 2), Fraction(1, 2)), vec(1, 1)
    )
    assert time.perf_counter() - start < 1


def test_is_standard_coefficient():
    for m in range(1, 9):
        assert is_standard_coefficient(Fraction(m - 1, m))
    assert is_standard_coefficient(1)
    assert not is_standard_coefficient(Fraction(2, 5))
    assert not is_standard_coefficient(Fraction(5, 8))
    assert not is_standard_coefficient(Fraction(-1, 2))
    assert not is_standard_coefficient(Fraction(3, 2))


def test_complement_standard_examples():
    comp = complement_standard(FIFTH, 1, 3)
    assert comp == Complement(3, (Fraction(1, 3), Fraction(0)), vec(2, 3))
    comp = complement_standard(FIFTH, 2, 5)
    assert comp == Complement(5, (Fraction(0), Fraction(0)), vec(5, 5))
    comp = complement_standard(SMOOTH, 1, 1)
    assert comp == Complement(1, (Fraction(1), Fraction(0)), vec(0, 1))


def test_complement_standard_reduces_the_ratio():
    # The level bound q*s is stated for the reduced q, so 2/6 and 3/9
    # give the complement of 1/3.
    germ = germ_from_quotient_type(7, 1, 3)
    expected = Complement(3, (Fraction(2, 3), Fraction(1, 3)), vec(1, 2))
    for p, q in ((1, 3), (2, 6), (3, 9)):
        assert complement_standard(germ, p, q) == expected, (p, q)


def test_complement_standard_computes_the_minimum_once(monkeypatch):
    # One minimum for the germ, passed to the case analysis, which reads
    # the minimum of its residual psi - gamma*v1 off the normal form.
    calls = []
    original = toricmld.germs.sail_minimum

    def counting(lat, psi):
        calls.append(psi)
        return original(lat, psi)

    monkeypatch.setattr(toricmld.germs, "sail_minimum", counting)
    monkeypatch.setattr(toricmld.geometry, "sail_minimum", counting)
    germ = germ_from_quotient_type(7, 1, 3)
    comp = complement_standard(germ, 1, 2)
    assert calls == [(1, 1, 1)]  # psi of the zero boundary
    monkeypatch.undo()
    assert comp == complement_standard(germ, 1, 2)


def _count_walks(monkeypatch):
    """Counts of Klein sails walked and of lattices reduced from rows, as duals are, from now on."""
    counts = {"sails": 0, "duals": 0}
    sail, rows = toricmld.lattices.Sail, toricmld.lattices._lattice_from_rows

    def counted_sail(*args):
        counts["sails"] += 1
        return sail(*args)

    def counted_rows(*args):
        counts["duals"] += 1
        return rows(*args)

    monkeypatch.setattr(toricmld.lattices, "Sail", counted_sail)
    monkeypatch.setattr(toricmld.lattices, "_lattice_from_rows", counted_rows)
    return counts


def test_complements_walk_each_sail_once(monkeypatch):
    # The germ's lattice keeps its sail and its dual, and the dual keeps
    # its own sail, so the construction and its checker share them: one
    # sail of the lattice, one of its dual, and one dual built.
    bounded = germ_from_quotient_type(801, 1, 1)
    standard = germ_from_quotient_type(7, 1, 3)
    counts = _count_walks(monkeypatch)
    bounded_complement(bounded)
    assert counts == {"sails": 2, "duals": 1}
    counts.update(sails=0, duals=0)
    complement_standard(standard, 1, 3)
    assert counts == {"sails": 2, "duals": 1}


def test_complement_standard_rejections():
    with pytest.raises(ValueError, match="below the target"):
        complement_standard(FIFTH, 1, 2)
    with pytest.raises(ValueError, match="standard"):
        complement_standard(make_germ(STANDARD_LATTICE, Fraction(2, 5), 0), 1, 1)
    with pytest.raises(ValueError):
        complement_standard(SMOOTH, 0, 1)


def test_complement_standard_corollary(standard_corpus):
    # Taking the target ratio equal to the value itself always works:
    # the level divides out and the boundary completes the germ's own.
    for germ in standard_corpus[:60]:
        a = mld(germ)
        comp = complement_standard(germ, a.numerator, a.denominator)
        assert comp.n % a.denominator == 0
        s = comp.n // a.denominator
        assert s * a.numerator <= 2 * a.denominator
        pushed = vec(comp.witness_m.x1 / comp.n, comp.witness_m.x2 / comp.n)
        assert mld_oracle_lattice(germ.lattice, pushed)[0] >= a


def test_bounded_complement_examples():
    assert bounded_complement(SMOOTH) == Complement(1, (Fraction(1), Fraction(0)), vec(0, 1))
    shifted = make_germ(STANDARD_LATTICE, Fraction(1, 2), Fraction(1, 2))
    assert bounded_complement(shifted) == Complement(
        2, (Fraction(1), Fraction(1, 2)), vec(0, 1)
    )
    assert bounded_complement(FIFTH) == Complement(3, (Fraction(1, 3), Fraction(0)), vec(2, 3))
    with pytest.raises(ValueError):
        bounded_complement(make_germ(STANDARD_LATTICE, 1, 1))


def test_bounded_complement_respects_floor_option(standard_corpus):
    # On standard boundaries the least level never exceeds floor(2/a).
    for germ in (SMOOTH, FIFTH, CHAIN3, germ_from_quotient_type(7, 1, 3), *standard_corpus):
        assert bounded_complement(germ).n <= math.floor(2 / mld(germ))
    # Off them it may: the smooth germ at (1/3, 1/3) has value 4/3, so
    # floor(2/a) = 1, and its least level is 2. That is no error.
    light = make_germ(STANDARD_LATTICE, Fraction(1, 3), Fraction(1, 3))
    assert mld(light) == Fraction(4, 3)
    assert bounded_complement(light) == Complement(
        2, (Fraction(1), Fraction(1, 2)), vec(0, 1)
    )


def _oracle_filtered_complement(germ):
    """The level-bounded search with an oracle test on every candidate."""
    a, psi = mld(germ), psi_of(germ)
    for n in range(1, math.ceil(2 / a) + 1):
        for m in points_in_box(dual(germ.lattice), n * psi.x1, n * psi.x2):
            if not m.is_zero() and mld_oracle_lattice(germ.lattice, vec(m.x1 / n, m.x2 / n))[0] > 0:
                return Complement(n, (1 - m.x1 / n, 1 - m.x2 / n), m)
    return None


def test_bounded_complement_needs_no_oracle_per_candidate(monkeypatch):
    # A nonzero covector of the box is nonnegative, so it pairs positively
    # with the open quadrant: an oracle test per candidate never rejects.
    # The box search is the reference for the sail walk.
    values = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    pairs = [(b1, b2) for b1 in values for b2 in values if b1 + b2 < 2]
    germs = [Germ(lat, b1, b2) for lat in superlattices(8) for b1, b2 in pairs]
    germs += [
        germ_from_quotient_type(r, 1, w, *boundary)
        for r in range(2, 61)
        for w in range(1, r)
        if math.gcd(w, r) == 1
        for boundary in ((0, 0), (Fraction(1, 2), Fraction(1, 3)))
    ]
    for germ in germs:
        if mld(germ) == 0:
            continue
        expected = _oracle_filtered_complement(germ)
        assert expected is not None
        assert bounded_complement(germ) == expected

    # No oracle runs in either construction, their checker included.
    germs = (SMOOTH, FIFTH, CHAIN3, germ_from_quotient_type(30, 1, 11))
    expected = [
        (bounded_complement(germ), complement_standard(germ, *_ratio(mld(germ)))) for germ in germs
    ]

    def refuse(*args):
        raise AssertionError("the oracle ran")

    for name in ("mld_oracle_value", "mld_oracle_scaled", "mld_oracle_lattice"):
        monkeypatch.setattr(toricmld.oracle, name, refuse)
    for germ, (bounded, standard) in zip(germs, expected):
        assert bounded_complement(germ) == bounded
        assert complement_standard(germ, *_ratio(mld(germ))) == standard


def _ratio(value):
    return value.numerator, value.denominator


def test_bounded_complement_boundary_is_valid(standard_corpus):
    for germ in standard_corpus[:40]:
        a = mld(germ)
        comp = bounded_complement(germ)
        assert 1 <= comp.n <= math.ceil(2 / a)
        for b, c in ((germ.b1, comp.boundary[0]), (germ.b2, comp.boundary[1])):
            assert b <= c <= 1
        assert contains(dual(germ.lattice), comp.witness_m)
        level_psi = vec(
            comp.witness_m.x1 / Fraction(comp.n), comp.witness_m.x2 / Fraction(comp.n)
        )
        assert mld_oracle_lattice(germ.lattice, level_psi)[0] > 0


@st.composite
def cyclic_germs(draw):
    r = draw(st.integers(2, 60))
    w = draw(st.integers(1, r - 1).filter(lambda w: math.gcd(w, r) == 1))
    return germ_from_quotient_type(r, 1, w)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cyclic_germs(), st.integers(1, 12))
def test_pair_witness_is_shared(germ, twelfths):
    # The dichotomy is the certificate at t = mld, and the standard
    # complement recombines the pair with lawrence's weights.
    a = mld(germ)
    assert hyperplane_dichotomy(germ) == classify_tlc(germ, a)
    # A threshold in (gamma, mld], where the pair is needed.
    gamma = Fraction(*case_analysis_lattice(germ.lattice, germ_psi(germ)).gamma)
    t = gamma + (a - gamma) * Fraction(twelfths, 12)
    p, q = t.numerator, t.denominator
    result = lawrence(germ.lattice, p, q)
    if isinstance(result, EqualsIntersection) and not (p == 1 and result.k1 == result.k2 == 1):
        witness = result.m1.scaled(Fraction(result.k1)) + result.m2.scaled(Fraction(result.k2))
        assert complement_standard(germ, p, q).witness_m == witness


def test_engine_failures_name_the_lattice(monkeypatch):
    # A step that goes wrong breaks the closing identity of each
    # construction; the failure names the lattice it broke on.
    monkeypatch.setattr(toricmld.geometry, "cyclic_type", lambda lat: None)
    # A threshold certificate at witness/n that claims a point below p/q.
    below = NotTLC(vec(1, 1), Fraction(0))
    monkeypatch.setattr(toricmld.geometry, "classify_tlc_lattice", lambda lat, psi, t: below)
    # A dual sail whose one edge starts at the zero covector.
    zero_sail = Sail(1, [SailEdge(0, 0, 1, -1, 1)])
    monkeypatch.setattr(toricmld.geometry, "klein_sail", lambda lat: zero_sail)
    germ = germ_from_quotient_type(5, 1, 1)
    broken = {
        "mld >= 1 only on the product": lambda: classify_mld_ge_one(CHAIN3),
        "value at witness/n is below": lambda: complement_standard(germ, 1, 3),
        "witness is zero": lambda: bounded_complement(germ),
    }
    for identity, call in broken.items():
        with pytest.raises(VerificationFailure, match=r"fails for Lattice\[") as failure:
            call()
        assert identity in str(failure.value)

"""Threshold certificates, simplex avoidance, series, enumeration, records."""

import json
import math
import random
from fractions import Fraction

import pytest

from toricmld import (
    CaseA,
    CaseB,
    Contained,
    EqualsIntersection,
    Germ,
    Hit,
    Lattice,
    NotTLC,
    VerificationFailure,
    certify,
    classify_tlc,
    germ_from_quotient_type,
    lawrence,
    verify_certificate,
)
from toricmld.certify import (
    _cyclic_forms,
    box_maximal,
    candidate_germs,
    classify_germ_record,
    classify_tlc_lattice,
    enumerate_germs,
    series_certificate_log,
    series_membership_lattice,
    verify_certificate_lattice,
    verify_lawrence_result,
)
from toricmld.geometry import Complement
from toricmld.germs import make_germ
from toricmld.lattices import (
    STANDARD_LATTICE,
    cyclic_type,
    dual,
    lattice_from_generators,
    lattice_from_quotient_type,
    superlattices,
    vec,
)
from toricmld.oracle import lawrence_oracle, mld_oracle_lattice, tlc_oracle
from toricmld.records import (
    complement_from_json,
    complement_to_json,
    germ_from_json,
    germ_label,
    germ_to_json,
    lawrence_result_from_json,
    lawrence_result_to_json,
    record_from_json,
    record_to_json,
)

from conftest import dot

FIFTH_GERM = germ_from_quotient_type(5, 1, 1)
HALF_PLANE = lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
THIRD_PLANE = lattice_from_generators([(Fraction(1, 3), 0), (0, Fraction(1, 3))])


def test_classify_three_outcomes():
    cert = classify_tlc(FIFTH_GERM, Fraction(2, 5))
    assert cert == CaseB((1, 2, 3), (1, 3, 2), (1, 5), (1, 5))
    assert verify_certificate(FIFTH_GERM, Fraction(2, 5), cert)

    cert = classify_tlc(FIFTH_GERM, Fraction(1, 3))
    assert cert == CaseA((1, 2, 3))
    assert verify_certificate(FIFTH_GERM, Fraction(1, 3), cert)

    cert = classify_tlc(FIFTH_GERM, Fraction(1, 2))
    assert cert == NotTLC((5, 1, 1), (2, 5))
    assert verify_certificate(FIFTH_GERM, Fraction(1, 2), cert)

    with pytest.raises(ValueError):
        classify_tlc(FIFTH_GERM, 0)
    with pytest.raises(ValueError):
        classify_tlc(make_germ(STANDARD_LATTICE, 1, 1), 1)


def test_verify_rejects_corrupted_certificates():
    psi = vec(1, 1)
    lat = FIFTH_GERM.lattice
    # Valid covector, but its threshold multiple overshoots psi.
    out = verify_certificate_lattice(lat, psi, Fraction(2, 5), CaseA((1, 2, 3)))
    assert not out and "overshoot" in out.reason
    out = verify_certificate_lattice(lat, psi, Fraction(1, 3), CaseA((1, 0, 0)))
    assert not out and "zero" in out.reason
    # (1,1) pairs to 2/5 with the generator: not integral.
    out = verify_certificate_lattice(lat, psi, Fraction(1, 3), CaseA((1, 1, 1)))
    assert not out and "non-integrally" in out.reason

    good = CaseB((1, 2, 3), (1, 3, 2), (1, 5), (1, 5))
    out = verify_certificate_lattice(lat, psi, Fraction(1, 2), good)
    assert not out and "below the threshold" in out.reason
    bad = good._replace(t1=(1, 4))
    out = verify_certificate_lattice(lat, psi, Fraction(2, 5), bad)
    assert not out and "decompose" in out.reason
    bad = good._replace(t1=(-1, 5))
    assert not verify_certificate_lattice(lat, psi, Fraction(-1), bad)
    # Right decomposition of psi over the wrong subgroup.
    out = verify_certificate_lattice(STANDARD_LATTICE, psi, Fraction(2, 5), good)
    assert not out and "integrality locus" in out.reason
    dependent = CaseB((1, 1, 1), (1, 2, 2), (1, 3), (1, 3))
    assert not verify_certificate_lattice(lat, psi, Fraction(1, 3), dependent)

    witness = NotTLC((5, 1, 1), (2, 5))
    out = verify_certificate_lattice(lat, psi, Fraction(1, 3), witness)
    assert not out and "does not beat" in out.reason
    out = verify_certificate_lattice(lat, psi, Fraction(1, 2), witness._replace(value=(1, 5)))
    assert not out and "wrong" in out.reason
    out = verify_certificate_lattice(
        lat, psi, Fraction(1, 2), NotTLC((5, 2, 2), (4, 5))
    )
    assert not out
    out = verify_certificate_lattice(lat, psi, Fraction(1, 2), NotTLC((1, 0, 1), (1, 1)))
    assert not out and "interior" in out.reason


def test_certified_threshold_is_sound():
    # Any certificate that survives verification bounds the oracle value,
    # including hand-built certificates the classifier never produced.
    rng = random.Random(301)
    for _ in range(200):
        r = rng.randint(1, 25)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        lat = lattice_from_quotient_type(r, 1, w)
        psi = vec(Fraction(rng.randint(1, 4), 4), Fraction(rng.randint(1, 4), 4))
        m = (1, rng.randint(0, 6), rng.randint(0, 6))
        if m == (1, 0, 0):
            continue
        t = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        cert = CaseA(m)
        if verify_certificate_lattice(lat, psi, t, cert):
            assert mld_oracle_lattice(lat, psi)[0] >= t


def test_hand_built_pair_certificate():
    lat = dual(lattice_from_generators([(0, 3), (3, 1)]))
    cert = CaseB((1, 0, 3), (1, 3, 1), (2, 9), (1, 3))
    t = Fraction(1, 2)
    assert verify_certificate_lattice(lat, vec(1, 1), t, cert)
    assert mld_oracle_lattice(lat, vec(1, 1))[0] >= t


def test_classify_completeness_against_oracle(random_corpus):
    for germ, t in random_corpus[:120]:
        psi = vec(1 - germ.b1, 1 - germ.b2)
        if psi.is_zero():
            continue
        cert = classify_tlc(germ, t)
        assert verify_certificate(germ, t, cert)
        assert isinstance(cert, NotTLC) == (not tlc_oracle(germ.lattice, psi, t))


def test_box_maximal():
    assert box_maximal(vec(0, 1), 1) == vec(0, 1)
    assert box_maximal(vec(0, 1), 2) == vec(0, 2)
    assert box_maximal(vec(1, 2), 2) == vec(1, 2)
    assert box_maximal(vec(1, 1), Fraction(5, 2)) == vec(2, 2)
    with pytest.raises(ValueError):
        box_maximal(vec(0, 0), 1)
    # No positive multiple fits: the caller broke the box identity.
    with pytest.raises(VerificationFailure, match=r"box-maximal multiple >= 1 fails for \(3,1\)"):
        box_maximal(vec(3, 1), 2)


def test_lawrence_examples():
    assert lawrence(STANDARD_LATTICE, 1, 1) == Contained(vec(0, 1))
    assert lawrence(THIRD_PLANE, 1, 2) == EqualsIntersection(vec(0, 3), vec(3, 0), 2, 1)
    assert lawrence(FIFTH_GERM.lattice, 1, 2) == Hit(vec(Fraction(1, 5), Fraction(1, 5)))
    assert lawrence(HALF_PLANE, 1, 1) == EqualsIntersection(vec(0, 2), vec(2, 0), 1, 1)
    # The ratio reduces before use.
    assert lawrence(THIRD_PLANE, 2, 4) == lawrence(THIRD_PLANE, 1, 2)
    with pytest.raises(ValueError):
        lawrence(STANDARD_LATTICE, 0, 1)
    with pytest.raises(ValueError):
        lawrence(lattice_from_generators([(2, 0), (0, 1)]), 1, 1)


def test_lawrence_pair_outside_the_dual_quadrant_is_rejected():
    # 1/3(1,1) meets the open simplex x + y < 1 at (1/3, 1/3), yet this
    # pair has the lattice as its integrality locus, independent rows,
    # valid weights and its average (1/2, 1) in the box; only m1 = (1, -1)
    # lying outside the dual quadrant tells it from a proof of avoidance.
    lat = lattice_from_quotient_type(3, 1, 1)
    assert not lawrence_oracle(lat, 1, 1)
    forged = EqualsIntersection(vec(1, -1), vec(0, 3), 1, 1)
    assert dual(lattice_from_generators([forged.m1, forged.m2])) == lat
    assert verify_lawrence_result(lat, 1, 1, forged) == (
        False,
        "pair covectors outside the dual quadrant",
    )


@pytest.mark.parametrize(
    "result, reason",
    [
        (EqualsIntersection(vec(0, 3), vec(3, 0), 0, 1), "weights must be positive"),
        (EqualsIntersection(vec(0, 3), vec(3, 0), 2, -1), "weights must be positive"),
        (EqualsIntersection(vec(0, 3), vec(3, 0), 3, 2), "weights exceed twice the denominator"),
        (CaseA(vec(0, 3)), "unrecognized simplex-avoidance result"),
    ],
)
def test_lawrence_result_rejections(result, reason):
    # EqualsIntersection(vec(0, 3), vec(3, 0), 2, 1) proves avoidance at 1/2;
    # k1 + k2 = 5 exceeds 2q = 4.
    assert verify_lawrence_result(THIRD_PLANE, 1, 2, result) == (False, reason)


def test_classify_tlc_lattice_checks_its_certificate(monkeypatch):
    # A forged covector certificate is caught by the same checker as the
    # sweep's: VerificationFailure naming the lattice and psi. At t = 1/3
    # = gamma the single covector comes straight off the covector step.
    monkeypatch.setattr(certify, "best_covector_lattice", lambda *args: ((1, 3), (0, 0)))
    with pytest.raises(VerificationFailure) as failure:
        classify_tlc_lattice(FIFTH_GERM.lattice, vec(1, 1), Fraction(1, 3))
    assert str(failure.value) == (
        "verify_certificate_lattice (witness covector is zero)"
        " fails for Lattice[(1/5,1/5), (0,1)] at psi (1,1)"
    )


def test_classify_tlc_lattice_checks_its_pair_certificate(monkeypatch):
    # The twin for a pair: at gamma = 1/3 < t = 2/5 = mld the certificate
    # comes from the split, and a forged dependent pair is caught the same way.
    forged = CaseB((1, 2, 3), (1, 4, 6), (1, 5), (1, 5))
    monkeypatch.setattr(certify, "certificate_from_case_data", lambda *args: forged)
    with pytest.raises(VerificationFailure) as failure:
        classify_tlc_lattice(FIFTH_GERM.lattice, vec(1, 1), Fraction(2, 5))
    assert str(failure.value) == (
        "verify_certificate_lattice (pair covectors are linearly dependent)"
        " fails for Lattice[(1/5,1/5), (0,1)] at psi (1,1)"
    )


def test_lawrence_agrees_with_oracle():
    rng = random.Random(302)
    pool = list(superlattices(20))
    for _ in range(150):
        lat = rng.choice(pool)
        p, q = rng.randint(1, 4), rng.randint(1, 5)
        result = lawrence(lat, p, q)
        avoids = lawrence_oracle(lat, p, q)
        t = Fraction(p, q)
        if isinstance(result, Hit):
            assert not avoids
            assert result.e.x1 > 0 and result.e.x2 > 0
            assert result.e.x1 + result.e.x2 < t
        else:
            assert avoids
            if isinstance(result, Contained):
                m = result.m
                assert m.x1.denominator == 1 and m.x2.denominator == 1
                assert 0 <= m.x1 <= 1 / t and 0 <= m.x2 <= 1 / t
                assert all(dot(m, g).denominator == 1 for g in lat.basis)
            else:
                assert dual(lattice_from_generators([result.m1, result.m2])) == lat
                assert result.k1 >= 1 and result.k2 >= 1
                assert result.k1 + result.k2 <= 2 * t.denominator
                total = result.k1 + result.k2
                avg = (
                    result.m1.scaled(Fraction(result.k1)) + result.m2.scaled(Fraction(result.k2))
                ).scaled(Fraction(1, total))
                assert 0 <= avg.x1 <= 1 / t and 0 <= avg.x2 <= 1 / t


def test_series_membership():
    assert series_membership_lattice(lattice_from_quotient_type(7, 1, 6), 1) == [(1, 1)]
    assert series_membership_lattice(STANDARD_LATTICE, 1) == [(0, 1), (1, 0), (1, 1)]
    assert series_membership_lattice(FIFTH_GERM.lattice, Fraction(2, 5)) == []
    assert series_membership_lattice(lattice_from_quotient_type(3, 2, 1), Fraction(1, 2)) == [
        (1, 1),
        (2, 2),
    ]
    with pytest.raises(ValueError):
        series_membership_lattice(FIFTH_GERM.lattice, 0)


def test_series_membership_matches_its_definition():
    # Lattices without the integer plane too: their rows with points are sparser.
    others = [
        lattice_from_generators([vec(Fraction(x1), Fraction(x2)), vec(0, Fraction(y))])
        for x1, x2, y in (("1/2", "1/4", 1), ("2/3", "1/3", "1/2"), ("1/3", "2/9", "2/3"))
    ]
    for lat in [*superlattices(30), *others]:
        for t in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 7), Fraction(1, 30)):
            bound = math.floor(1 / t)
            expected = [
                (i, j)
                for i in range(bound + 1)
                for j in range(bound + 1)
                if (i, j) != (0, 0)
                and all((i * row.x1 + j * row.x2).denominator == 1 for row in lat.basis)
            ]
            assert series_membership_lattice(lat, t) == expected, (lat, t)


def test_series_membership_refuses_lists_above_the_limit():
    # The standard lattice fills its box: (B + 1)^2 - 1 covectors at B = floor(1/t).
    assert len(series_membership_lattice(STANDARD_LATTICE, Fraction(1, 315))) == 316**2 - 1
    with pytest.raises(ValueError, match=r"up to 100488 covectors, above the limit of 100000"):
        series_membership_lattice(STANDARD_LATTICE, Fraction(1, 316))
    # Rows are walked only where the dual has points, so a huge order at a
    # small threshold stays cheap below the limit and is refused above it.
    huge = lattice_from_quotient_type(10**19, 1, 1)
    assert series_membership_lattice(huge, Fraction(1, 99_999)) == []
    with pytest.raises(ValueError, match=r"above the limit"):
        series_membership_lattice(huge, Fraction(1, 10**18))


def test_series_certificate_log():
    smooth = make_germ(STANDARD_LATTICE, 0, 0)
    assert series_certificate_log(smooth, vec(1, 1), 1) == (1, (Fraction(0), Fraction(0)))
    third = germ_from_quotient_type(3, 2, 1)
    assert series_certificate_log(third, vec(1, 1), 1) == (1, (Fraction(0), Fraction(0)))
    shifted = germ_from_quotient_type(3, 2, 1, Fraction(1, 2), 0)
    assert series_certificate_log(shifted, vec(1, 1), Fraction(1, 2)) == (
        2,
        (Fraction(1, 2), Fraction(1, 2)),
    )
    # A vanished psi component can never dominate a positive covector entry.
    blocked = germ_from_quotient_type(3, 2, 1, 1, 0)
    assert series_certificate_log(blocked, vec(1, 1), Fraction(1, 2)) is None


def test_series_certificate_log_at_the_rounded_level():
    # At t = 2/5 the level 3 lies in (1/t, ceil(1/t)] = (5/2, 3]; with
    # w = 1/(3t) = 5/6 the boundary must clear (1 - w) + w*b = 1/6 + 5b/6.
    half = make_germ(STANDARD_LATTICE, Fraction(1, 2), Fraction(1, 2))
    # m = (1, 1) needs n = 2 <= 5/2: accepted directly.
    assert series_certificate_log(half, vec(1, 1), Fraction(2, 5)) == (
        2,
        (Fraction(1, 2), Fraction(1, 2)),
    )
    # m = (1, 0) at b = (2/3, 0) needs n = 3: b' = (2/3, 1) falls short of
    # (13/18, 1/6) in the first coordinate, so it is refused.
    assert series_certificate_log(
        make_germ(STANDARD_LATTICE, Fraction(2, 3), 0), vec(1, 0), Fraction(2, 5)
    ) is None
    # m = (1, 0) at b = (3/5, 0) needs n = 3: b' = (2/3, 1) clears
    # (2/3, 1/6), so it is accepted at the rounded level.
    assert series_certificate_log(
        make_germ(STANDARD_LATTICE, Fraction(3, 5), 0), vec(1, 0), Fraction(2, 5)
    ) == (3, (Fraction(2, 3), Fraction(1)))
    # m = (1, 0) at b = (3/4, 0) needs n = 4 > ceil(5/2): refused.
    assert series_certificate_log(
        make_germ(STANDARD_LATTICE, Fraction(3, 4), 0), vec(1, 0), Fraction(2, 5)
    ) is None


@pytest.mark.parametrize(
    "m, message",
    [
        (vec(0, 0), "witness must be a nonzero integer covector in the dual quadrant"),
        (vec(-1, 1), "witness must be a nonzero integer covector in the dual quadrant"),
        (vec(Fraction(1, 2), 1), "witness must be a nonzero integer covector in the dual quadrant"),
        (vec(1, 0), "witness does not pair integrally with the germ lattice"),
    ],
)
def test_series_certificate_log_refuses_a_bad_witness(m, message):
    with pytest.raises(ValueError, match=message):
        series_certificate_log(FIFTH_GERM, m, Fraction(1, 2))


def test_classified_record_and_failure():
    record = classify_germ_record(FIFTH_GERM, Fraction(2, 5))
    assert record.mld == Fraction(2, 5)
    assert isinstance(record.certificate, CaseB)
    assert record.series == []
    # Zero psi records carry the violating residue directly.
    record = classify_germ_record(make_germ(STANDARD_LATTICE, 1, 1), Fraction(1, 2))
    assert record.mld == 0
    assert record.certificate == NotTLC((1, 1, 1), (0, 1))


@pytest.mark.parametrize("t", [0, -1])
def test_classified_record_refuses_a_threshold_that_is_not_positive(t):
    # A bad input, not a rejected certificate (VerificationFailure, exit 2).
    with pytest.raises(ValueError, match="threshold must be positive"):
        classify_germ_record(FIFTH_GERM, t)


def test_cyclic_lattice_stream():
    got = [Lattice(hnf=form) for form, _, _ in _cyclic_forms(3)]
    assert [cyclic_type(lat) for lat in got] == [(1, 0, 0), (2, 1, 1), (3, 1, 1), (3, 1, 2)]
    assert got[0] == STANDARD_LATTICE
    for lat in got[1:]:
        assert lat == lattice_from_quotient_type(*cyclic_type(lat))
    # One lattice per subgroup: weight pairs that differ by a unit collapse.
    seen = [form for form, _, _ in _cyclic_forms(7)]
    assert len(seen) == len(set(seen))


def test_enumerate_germs_examples():
    zero = ((Fraction(0), Fraction(0)),)
    records = list(enumerate_germs("cyclic", 3, Fraction(1), zero))
    types = [cyclic_type(r.germ.lattice) for r in records]
    assert types == [(1, 0, 0), (2, 1, 1), (3, 1, 2)]
    for record in records:
        assert record.mld >= 1
        assert verify_certificate(record.germ, Fraction(1), record.certificate)

    records = list(enumerate_germs("all", 4, Fraction(1, 2), zero))
    assert HALF_PLANE in [r.germ.lattice for r in records]
    assert all(r.mld >= Fraction(1, 2) for r in records)

    sigma = ((Fraction(1), Fraction(1)),)
    assert list(enumerate_germs("cyclic", 1, Fraction(1, 10), sigma)) == []
    flagged = list(enumerate_germs("cyclic", 1, Fraction(1, 10), sigma, include_not_tlc=True))
    assert len(flagged) == 1 and isinstance(flagged[0].certificate, NotTLC)

    with pytest.raises(ValueError):
        list(enumerate_germs("weird", 3, Fraction(1), zero))


def test_candidate_germs_canonical_dedupe():
    # Boundary pairs participate in swap canonicalization.
    pairs = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
    germs = list(candidate_germs("cyclic", 1, pairs))
    assert len(germs) == 1
    germs = list(candidate_germs("all", 4, ((Fraction(0), Fraction(0)),)))
    assert len(germs) == len(set(germs)) == 11


def test_quotient_type_of():
    assert cyclic_type(FIFTH_GERM.lattice) == (5, 1, 1)
    assert cyclic_type(make_germ(STANDARD_LATTICE, 0, 0).lattice) == (1, 0, 0)
    half_germ = next(
        g for g in candidate_germs("all", 4, ((Fraction(0), Fraction(0)),))
        if g.lattice == HALF_PLANE
    )
    assert cyclic_type(half_germ.lattice) is None


def test_record_json_round_trip(random_corpus):
    for germ, t in random_corpus[:40]:
        record = classify_germ_record(germ, t)
        data = json.loads(json.dumps(record_to_json(record)))
        assert record_from_json(data) == record
    germ = germ_from_quotient_type(5, 1, 2, Fraction(1, 2), Fraction(2, 3))
    assert germ_from_json(germ_to_json(germ)) == germ


def test_lawrence_and_complement_json_round_trip():
    for result in (
        Contained(vec(0, 2)),
        EqualsIntersection(vec(0, 3), vec(3, 0), 2, 1),
        Hit(vec(Fraction(1, 5), Fraction(1, 5))),
    ):
        assert lawrence_result_from_json(lawrence_result_to_json(result)) == result
    comp = Complement(3, (Fraction(1, 3), Fraction(0)), vec(2, 3))
    assert complement_from_json(complement_to_json(comp)) == comp


def test_germ_label():
    assert germ_label(make_germ(STANDARD_LATTICE, 0, 0)) == "smooth"
    assert germ_label(FIFTH_GERM) == "1/5(1,1)"
    # Unit points are imprimitive here, so only the relaxed constructor applies.
    assert germ_label(Germ(HALF_PLANE, Fraction(0), Fraction(0))) == "index 4"


def test_tampered_record_raises_verification_failure():
    record = classify_germ_record(FIFTH_GERM, Fraction(2, 5))
    data = record_to_json(record)
    data["certificate"]["t1"] = "1/4"
    with pytest.raises(VerificationFailure):
        tampered = record_from_json(data)
        outcome = verify_certificate(tampered.germ, tampered.t, tampered.certificate)
        if not outcome:
            raise VerificationFailure(outcome.reason)

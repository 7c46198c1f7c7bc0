"""The certificate checks of `verify`: reject paths per case, and the verifier's definitions.

`verify_certificate_lattice` works in scaled integers. Here it is held
to a `Fraction` reference written from the definitions, on seeded
`hypothesis` draws of genuine and perturbed certificates, and every
reason it can give must come up. Each drawn certificate is also sent
through the record codec, which must hand the verifier the same
integers. The command line tests tamper with the last record of each
certificate case of a mixed sweep and expect exit 2 with the reason of
the check that catches it.
"""

import inspect
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld import CaseA, CaseB, Lattice, NotTLC
from toricmld.certify import (
    classify_tlc_lattice,
    verify_certificate_lattice,
    verify_certificate_scaled,
)
from toricmld.cli import main
from toricmld.germs import mld_lattice
from toricmld.lattices import (
    contains,
    dual,
    format_rational,
    in_cone,
    lattice_from_generators,
    lattice_from_quotient_type,
    parse_rational,
    vec,
)
from toricmld.records import certificate_from_json, certificate_to_json

from conftest import dot, fraction_certificate, scaled_certificate

SWEEP = (
    "enumerate", "--mode", "all", "--index-max", "5", "--boundary-set", "standard",
    "--t", "1/4", "--include-not-tlc",
)


@pytest.fixture(scope="module")
def last_of_each_case(tmp_path_factory):
    """The last record of each certificate case in the index-5 mixed sweep, as a dict."""
    path = tmp_path_factory.mktemp("sweep") / "mixed.jsonl"
    assert main([*SWEEP, "--out", str(path)]) == 0
    last = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        last[record["certificate"]["case"]] = record
    assert set(last) == {"a", "b", "not_tlc"}
    return last


def _shift(record, field, i, delta):
    """Add delta to coordinate i of the certificate vector `field`."""
    v = record["certificate"][field]
    v[i] = format_rational(parse_rational(v[i]) + delta)


def _scale(record, field, c):
    record["certificate"][field] = [
        format_rational(parse_rational(x) * c) for x in record["certificate"][field]
    ]


def _mld_off_by_one(record):
    record["mld"] = format_rational(parse_rational(record["mld"]) + 1)


def _extra_series_id(record):
    record["series"].append([999, 999])


def _zero(field):
    return lambda record: record["certificate"].update({field: ["0", "0"]})


def _halve_m1_double_t1(record):
    # t1*m1 is unchanged, so psi still decomposes; m1/2 moves the locus.
    _scale(record, "m1", Fraction(1, 2))
    record["certificate"]["t1"] = format_rational(2 * parse_rational(record["certificate"]["t1"]))


def _t1_plus_one(record):
    record["certificate"]["t1"] = format_rational(parse_rational(record["certificate"]["t1"]) + 1)


def _value_plus(record):
    record["certificate"]["value"] = format_rational(
        parse_rational(record["certificate"]["value"]) + Fraction(1, 100)
    )


# (case, tampering, reason of the check that catches it). Lattices of index
# at most 5 have denominators dividing 5!, so a shift by 1/7 leaves them.
REJECTS = {
    "a: mld off by one": ("a", _mld_off_by_one, "recorded mld disagrees with the oracle"),
    "a: witness zeroed": ("a", _zero("m"), "certificate rejected: witness covector is zero"),
    "a: witness non-integral": (
        "a",
        lambda record: _shift(record, "m", 0, Fraction(1, 2)),
        "certificate rejected: witness pairs non-integrally with the subgroup",
    ),
    "a: a series id too many": (
        "a", _extra_series_id, "series memberships disagree with recomputation"
    ),
    "b: mld off by one": ("b", _mld_off_by_one, "recorded mld disagrees with the oracle"),
    "b: first covector zeroed": (
        "b", _zero("m1"), "certificate rejected: pair covectors are linearly dependent"
    ),
    "b: first covector halved": (
        "b",
        _halve_m1_double_t1,
        "certificate rejected: subgroup differs from the pair's joint integrality locus",
    ),
    "b: t1 off by one": (
        "b", _t1_plus_one, "certificate rejected: weighted pair does not decompose psi"
    ),
    "b: a series id too many": (
        "b", _extra_series_id, "series memberships disagree with recomputation"
    ),
    "not_tlc: mld off by one": (
        "not_tlc", _mld_off_by_one, "recorded mld disagrees with the oracle"
    ),
    "not_tlc: point zeroed": (
        "not_tlc",
        _zero("e"),
        "certificate rejected: violating point is not interior to the quadrant",
    ),
    "not_tlc: point off the lattice": (
        "not_tlc",
        lambda record: _shift(record, "e", 0, Fraction(1, 7)),
        "certificate rejected: violating point lies outside the subgroup",
    ),
    "not_tlc: value changed": (
        "not_tlc", _value_plus, "certificate rejected: recorded pairing value is wrong"
    ),
    "not_tlc: a series id too many": (
        "not_tlc", _extra_series_id, "series memberships disagree with recomputation"
    ),
}


@pytest.mark.parametrize("name", REJECTS)
def test_verify_rejects_a_tampered_record_of_each_case(capsys, tmp_path, last_of_each_case, name):
    case, tamper, reason = REJECTS[name]
    record = json.loads(json.dumps(last_of_each_case[case]))
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 0
    capsys.readouterr()

    tamper(record)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"verification failure: line 1: {reason}\n"


def reference_verification(lat, psi, t, cert):
    """(ok, reason) of a certificate, in `Fraction`s, from the definitions in order."""
    if isinstance(cert, (CaseA, CaseB, NotTLC)):
        cert = fraction_certificate(cert)
    if t <= 0:
        return False, "threshold must be positive"
    if isinstance(cert, CaseA):
        m = cert.m
        if m.is_zero():
            return False, "witness covector is zero"
        if not in_cone(m):
            return False, "witness covector outside the dual quadrant"
        if any(dot(m, row).denominator != 1 for row in lat.basis):
            return False, "witness pairs non-integrally with the subgroup"
        if not in_cone(psi - m.scaled(t)):
            return False, "threshold multiple of the witness overshoots psi"
        return True, "single-witness certificate holds"
    if isinstance(cert, CaseB):
        m1, m2, t1, t2 = cert
        if not (in_cone(m1) and in_cone(m2)):
            return False, "pair covectors outside the dual quadrant"
        if m1.x1 * m2.x2 - m1.x2 * m2.x1 == 0:
            return False, "pair covectors are linearly dependent"
        if not (t1 > 0 and t2 > 0):
            return False, "pair weights must be positive"
        if t1 + t2 < t:
            return False, "pair weights sum below the threshold"
        if m1.scaled(t1) + m2.scaled(t2) != psi:
            return False, "weighted pair does not decompose psi"
        if dual(lattice_from_generators([m1, m2])) != lat:
            return False, "subgroup differs from the pair's joint integrality locus"
        return True, "dual-pair certificate holds"
    if isinstance(cert, NotTLC):
        e, value = cert
        if not contains(lat, e):
            return False, "violating point lies outside the subgroup"
        if not (e.x1 > 0 and e.x2 > 0):
            return False, "violating point is not interior to the quadrant"
        if dot(psi, e) != value:
            return False, "recorded pairing value is wrong"
        if value >= t:
            return False, "recorded value does not beat the threshold"
        return True, "violating point confirmed"
    return False, "unrecognized certificate"


# Every reason the integer core of `verify_certificate_lattice` can give.
REASONS = set(
    re.findall(r'Verification\((?:True|False), "([^"]+)"\)', inspect.getsource(verify_certificate_scaled))
)


@st.composite
def lattices(draw):
    if draw(st.booleans()):
        r = draw(st.integers(1, 10**6 - 1))
        w = draw(st.integers(0, r - 1).filter(lambda w: math.gcd(w, r) == 1))
        return lattice_from_quotient_type(r, 1, w)
    # Duals of integer sublattices ((a, b), (0, d)) of index a*d <= 40.
    n = draw(st.integers(1, 40))
    a = draw(st.sampled_from([a for a in range(1, n + 1) if n % a == 0]))
    d = n // a
    return dual(Lattice(hnf=(1, a, draw(st.integers(0, d - 1)), d)))


small = st.fractions(min_value=0, max_value=1, max_denominator=30)
nudges = st.builds(
    lambda sign, den: Fraction(sign, den), st.sampled_from([1, -1]), st.integers(1, 30)
)


def _vector_fields(cert):
    return [i for i, x in enumerate(cert) if isinstance(x, tuple)]


def _scalar_fields(cert):
    return [i for i, x in enumerate(cert) if not isinstance(x, tuple)]


@st.composite
def instances(draw):
    """(lattice, psi, t, certificate): a genuine certificate, perhaps perturbed.

    The certificate is perturbed in its `fraction_certificate` form and
    then read back from its record (`_through_the_codec`).
    """
    lat = draw(lattices())
    psi = vec(*draw(st.tuples(small, small).filter(lambda p: p != (0, 0))))
    t = draw(st.fractions(min_value=Fraction(1, 30), max_value=2, max_denominator=30))
    value = mld_lattice(lat, psi)
    if value > 0 and draw(st.booleans()):
        t = value  # the dichotomy at t = mld gives case b whenever gamma < mld
    cert = fraction_certificate(classify_tlc_lattice(lat, psi, t))
    fields = list(cert)
    how = draw(
        st.sampled_from(
            ["genuine", "threshold", "nudge", "zero", "negate", "swap", "non-integral",
             "rescale", "weight", "other kind", "not a certificate"]
        )
    )
    if how == "threshold":
        # The certificate's own value as the threshold (a NotTLC no longer
        # beats it), or just above the sum of the pair's weights.
        own = cert.value if isinstance(cert, NotTLC) else sum(fields[2:]) + Fraction(1, 30)
        others = [Fraction(0), -t, t / 2, 2 * t, t + draw(nudges)]
        t = own if draw(st.booleans()) else draw(st.sampled_from(others))
    elif how == "nudge":
        i = draw(st.sampled_from(range(len(fields))))
        if isinstance(fields[i], tuple):
            j = draw(st.sampled_from([0, 1]))
            fields[i] = fields[i]._replace(**{fields[i]._fields[j]: fields[i][j] + draw(nudges)})
        else:
            fields[i] += draw(nudges)
    elif how == "zero":
        i = draw(st.sampled_from(_vector_fields(cert)))
        fields[i] = vec(0, 0)
    elif how == "negate":
        i = draw(st.sampled_from(_vector_fields(cert)))
        fields[i] = -fields[i]
    elif how == "swap":
        if isinstance(cert, CaseB) and draw(st.booleans()):
            fields = [cert.m2, cert.m1, *draw(st.permutations([cert.t1, cert.t2]))]
        else:
            i = draw(st.sampled_from(_vector_fields(cert)))
            fields[i] = fields[i].swapped()
    elif how == "non-integral":
        i = draw(st.sampled_from(_vector_fields(cert)))
        fields[i] = fields[i] + vec(Fraction(1, draw(st.integers(2, 60))), 0)
    elif how == "rescale" and isinstance(cert, CaseB):
        # t1*m1 stays put and the weights grow, so only the locus can tell.
        c = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
        fields = [cert.m1.scaled(c), cert.m2, cert.t1 / c, cert.t2]
    elif how == "weight" and _scalar_fields(cert):
        i = draw(st.sampled_from(_scalar_fields(cert)))
        fields[i] = draw(st.sampled_from([Fraction(0), -fields[i]]))
    elif how == "other kind":
        v = fields[_vector_fields(cert)[0]]
        fields = draw(st.sampled_from([[v], [v, dot(psi, v)], [v, v.swapped(), t, t]]))
        return lat, psi, t, _through_the_codec({1: CaseA, 2: NotTLC, 4: CaseB}[len(fields)](*fields))
    elif how == "not a certificate":
        return lat, psi, t, tuple(fields)
    return lat, psi, t, _through_the_codec(type(cert)(*fields))


def _through_the_codec(cert):
    """The certificate's integers, read back from the JSON of its record.

    A record's covector may be non-integral, negative or zero: the codec
    keeps it as (s, x, y), so `verify` rejects it for the same reason.
    """
    scaled = scaled_certificate(cert)
    decoded = certificate_from_json(json.loads(json.dumps(certificate_to_json(scaled))))
    assert decoded == scaled
    return decoded


PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=500)


def test_integer_verifier_matches_the_fraction_reference():
    seen = set()

    @PROPERTIES
    @given(instances())
    def check(instance):
        lat, psi, t, cert = instance
        outcome = verify_certificate_lattice(lat, psi, t, cert)
        assert tuple(outcome) == reference_verification(lat, psi, t, cert)
        seen.add(outcome.reason)

    check()
    # Negative control: draws that miss a reason leave that check untested.
    assert seen == REASONS and len(REASONS) == 19

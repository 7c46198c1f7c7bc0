"""Ten-point acceptance gate for the classifier, certificates, and CLI.

Each test wraps its body in the shared `criterion` context manager so
the terminal summary reports one PASS/FAIL line per criterion. All
checks are exact rational comparisons; the stated runtime bounds are
asserted with a monotonic clock.
"""

import functools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from toricmld import (
    CaseA,
    CaseB,
    Contained,
    EqualsIntersection,
    Hit,
    NotTLC,
    bounded_complement,
    classify_tlc,
    germ_from_quotient_type,
    lawrence,
    mld,
    mld_oracle,
    verify_certificate,
)
from toricmld.certify import (
    box_maximal,
    classify_tlc_lattice,
    verify_certificate_lattice,
)
from toricmld.geometry import (
    ProductCase,
    QuotientCase,
    classify_mld_ge_one,
    complement_standard,
    half_mld_section,
    hyperplane_dichotomy,
)
from toricmld.germs import CaseTag, case_analysis_lattice, germ_psi, psi_of
from toricmld.lattices import (
    contains,
    dual,
    in_cone,
    lattice_from_generators,
    superlattices,
    swapped_lattice,
    vec,
)
from toricmld.oracle import mld_oracle_lattice, tlc_oracle

from conftest import fraction_case_data, fraction_certificate, is_primitive

ONES = vec(1, 1)
HALF_PLANE = lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
RATIOS = ((1, 1), (1, 2), (2, 5), (1, 3))


@functools.cache
def _superlattice_pool():
    return tuple(superlattices(60))


@functools.cache
def _half_threshold_results():
    """Avoidance results at ratio 1/2 for every qualifying superlattice."""
    out = []
    for lat in _superlattice_pool():
        if mld_oracle_lattice(lat, ONES)[0] >= Fraction(1, 2):
            out.append((lat, lawrence(lat, 1, 2)))
    return tuple(out)


def test_unit_threshold_certificates(criterion):
    with criterion(1, "unit threshold superlattice certificates"):
        start = time.monotonic()
        allowed = {vec(1, 0), vec(0, 1), vec(1, 1)}
        pair_groups = set()
        count = 0
        for lat in _superlattice_pool():
            if not tlc_oracle(lat, ONES, 1):
                continue
            count += 1
            cert = classify_tlc_lattice(lat, ONES, 1)
            assert verify_certificate_lattice(lat, ONES, 1, cert)
            if isinstance(cert, CaseA):
                assert box_maximal(fraction_certificate(cert).m, 1) in allowed
            else:
                assert isinstance(cert, CaseB)
                pair_groups.add(lat)
        assert count == 179
        # The best single covector scale of the half-integer plane is
        # 1/2, below the threshold, so only the pair presentation fits.
        assert pair_groups == {HALF_PLANE}
        assert time.monotonic() - start < 10.0


def test_half_threshold_certificates(criterion):
    with criterion(2, "half threshold avoidance certificates"):
        start = time.monotonic()
        allowed_single = {vec(0, 2), vec(2, 0), vec(1, 2), vec(2, 1), vec(2, 2)}
        # Joint integrality loci that avoid the open half simplex while
        # no single boxed covector certifies them. The last pair's locus
        # has interior coordinate sums of at least 1/6 + 1/3, reaching
        # the threshold exactly.
        pairs = (
            ((0, 3), (3, 0)),
            ((0, 3), (3, 1)),
            ((0, 3), (4, 0)),
            ((0, 3), (4, 1)),
            ((0, 3), (5, 0)),
            ((0, 4), (4, 0)),
            ((1, 3), (3, 1)),
            ((1, 3), (4, 0)),
            ((0, 3), (6, 0)),
        )
        expected = set()
        for a, b in pairs:
            group = dual(lattice_from_generators([vec(*a), vec(*b)]))
            expected.add(group)
            expected.add(swapped_lattice(group))
        seen = set()
        results = _half_threshold_results()
        assert len(results) == 478
        for lat, result in results:
            assert not isinstance(result, Hit)
            if isinstance(result, Contained):
                assert result.m in allowed_single
            else:
                assert isinstance(result, EqualsIntersection)
                assert lat in expected
                seen.add(lat)
        assert seen == expected
        assert time.monotonic() - start < 30.0


def test_value_one_families(criterion):
    with criterion(3, "value-one cyclic quotient families"):
        expected = {(1, 0, 0)} | {(r, 1, r - 1) for r in range(2, 101)}
        got = set()
        types = [(1, 0, 0)] + [
            (r, 1, w) for r in range(2, 101) for w in range(1, r) if math.gcd(r, w) == 1
        ]
        for ty in types:
            germ = germ_from_quotient_type(*ty)
            if mld(germ) < 1:
                continue
            got.add(ty)
            outcome = classify_mld_ge_one(germ)
            if ty == (1, 0, 0):
                assert outcome == ProductCase(Fraction(2))
            else:
                assert outcome == QuotientCase(ty[0] - 1)
        assert got == expected


def test_corpus_against_oracle(criterion, random_corpus):
    with criterion(4, "engine and certificates against the oracle"):
        start = time.monotonic()
        for germ, t in random_corpus:
            value, _ = mld_oracle(germ)
            assert mld(germ) == value
            psi = psi_of(germ)
            if psi.is_zero():
                continue
            cert = classify_tlc(germ, t)
            assert verify_certificate(germ, t, cert)
            assert isinstance(cert, NotTLC) == (not tlc_oracle(germ.lattice, psi, t))
        assert time.monotonic() - start < 60.0


def test_structural_identities(criterion, random_corpus):
    with criterion(5, "adapted basis structural identities"):
        for germ, _ in random_corpus:
            psi = psi_of(germ)
            if psi.is_zero():
                continue
            analysis = case_analysis_lattice(germ.lattice, germ_psi(germ))
            data = fraction_case_data(analysis, germ.lattice)
            assert data.gamma <= data.mld <= 2 * data.gamma
            m_lat = dual(germ.lattice)
            assert contains(m_lat, data.v1) and is_primitive(m_lat, data.v1)
            if data.tag is CaseTag.BOUNDARY_PSI:
                assert data.v1.scaled(data.gamma) == psi
                continue
            assert data.tag is CaseTag.SPLIT
            assert data.mld == data.gamma + data.gamma * data.psi_prime * (1 - data.alpha)
            assert data.lambda_prime == data.gamma * data.psi_prime / data.q_min
            if data.psi_prime > 0:
                _, argmin = mld_oracle_lattice(germ.lattice, psi)
                assert argmin == [data.e1p + data.e2p]
            rng = random.Random(hash((psi.x1, psi.x2)) & 0xFFFF)
            for _ in range(5):
                t = data.mld * Fraction(rng.randint(0, 8), 8)
                s = (t - data.gamma) / (1 - data.alpha)
                resid = psi - (data.v1.scaled(t - s) + data.v2.scaled(s))
                assert in_cone(resid)
                assert resid.x1 == 0 or resid.x2 == 0
                direction = data.v2 - data.v1.scaled(data.alpha)
                assert resid == direction.scaled((data.mld - t) / (1 - data.alpha))


def test_pair_weight_bounds(criterion):
    with criterion(6, "pair weight bounds across sweeps and random draws"):
        checked = 0

        def check(result, t: Fraction) -> None:
            nonlocal checked
            if not isinstance(result, EqualsIntersection):
                return
            checked += 1
            assert result.k1 + result.k2 <= 2 * t.denominator
            if t.numerator == 1 and t.denominator > 1:
                assert result.k1 + result.k2 < 2 * t.denominator

        for lat in _superlattice_pool():
            if tlc_oracle(lat, ONES, 1):
                check(lawrence(lat, 1, 1), Fraction(1))
        for _, result in _half_threshold_results():
            check(result, Fraction(1, 2))
        pool = list(superlattices(40))
        rng = random.Random(60)
        for i in range(500):
            lat = rng.choice(pool)
            p = 1 if i % 2 == 0 else rng.randint(1, 4)
            q = rng.randint(1, 6)
            check(lawrence(lat, p, q), Fraction(p, q))
        assert checked >= 29


_LIGHT_LADDER = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


@functools.cache
def _qualifying_standard_germs():
    """50 seeded standard-coefficient germs per ratio, each with value
    at or above that ratio: 200 germs in total."""
    rng = random.Random(57)

    def stream():
        while True:
            style = rng.randrange(3)
            r = 1 if style == 0 else rng.randint(2, 30)
            while True:
                w = rng.randrange(1, r + 1)
                if math.gcd(w, r) == 1:
                    break
            if style == 1:
                b1 = b2 = Fraction(0)
            else:
                b1, b2 = rng.choice(_LIGHT_LADDER), rng.choice(_LIGHT_LADDER)
            germ = germ_from_quotient_type(r, 1, w, b1, b2)
            if not psi_of(germ).is_zero():
                yield germ

    gen = stream()
    out = []
    for p, q in RATIOS:
        target = Fraction(p, q)
        found = 0
        while found < 50:
            germ = next(gen)
            if mld(germ) >= target:
                out.append((germ, p, q))
                found += 1
    return tuple(out)


def test_standard_complements(criterion):
    with criterion(7, "standard-coefficient complements"):
        corpus = _qualifying_standard_germs()
        assert len(corpus) == 200
        for germ, p, q in corpus:
            comp = complement_standard(germ, p, q)
            assert comp.n % q == 0
            s = comp.n // q
            assert 1 <= s and s * p <= 2 * q
            assert germ.b1 <= comp.boundary[0] <= 1
            assert germ.b2 <= comp.boundary[1] <= 1
            assert contains(dual(germ.lattice), comp.witness_m)
            level = vec(
                comp.witness_m.x1 / Fraction(comp.n), comp.witness_m.x2 / Fraction(comp.n)
            )
            assert mld_oracle_lattice(germ.lattice, level)[0] >= Fraction(p, q)


def test_bounded_complements(criterion, standard_corpus):
    with criterion(8, "level-bounded complements"):
        for germ in standard_corpus:
            comp = bounded_complement(germ)
            assert comp.n <= math.ceil(2 / mld(germ))
            level = vec(
                comp.witness_m.x1 / Fraction(comp.n), comp.witness_m.x2 / Fraction(comp.n)
            )
            assert mld_oracle_lattice(germ.lattice, level)[0] > 0


def test_section_dichotomy(criterion, standard_corpus):
    with criterion(9, "hyperplane section dichotomy"):
        for germ in standard_corpus:
            psi = psi_of(germ)
            a = mld(germ)
            cert = fraction_certificate(hyperplane_dichotomy(germ))
            if isinstance(cert, CaseA):
                pushed = psi - cert.m.scaled(a)
                assert pushed.is_zero()
                assert mld_oracle_lattice(germ.lattice, pushed)[0] == 0
            else:
                assert cert.m1.scaled(cert.t1) + cert.m2.scaled(cert.t2) == psi
                assert cert.t1 + cert.t2 == a
            pushed = psi - half_mld_section(germ).scaled(a / 2)
            assert in_cone(pushed)
            assert mld_oracle_lattice(germ.lattice, pushed)[0] >= 0


def test_cli_round_trip(criterion, tmp_path):
    with criterion(10, "cli enumerate and verify round trip"):
        start = time.monotonic()
        out = tmp_path / "sweep.jsonl"
        enumerate_proc = subprocess.run(
            [
                sys.executable, "-m", "toricmld",
                "enumerate", "--mode", "cyclic", "--r-max", "200", "--t", "1/2",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert enumerate_proc.returncode == 0, enumerate_proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 350
        verify_proc = subprocess.run(
            [sys.executable, "-m", "toricmld", "verify", "--in", str(out)],
            capture_output=True,
            text=True,
        )
        assert verify_proc.returncode == 0, verify_proc.stderr
        assert verify_proc.stdout == "verified 350 records\n"
        assert time.monotonic() - start < 60.0

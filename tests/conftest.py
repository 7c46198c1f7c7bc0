"""Shared corpora, rational views of the engine's integers, and the acceptance reporting hook.

Every randomized fixture is seeded, so the whole suite is reproducible
run to run. Acceptance tests wrap their body in the `criterion` context
manager; the terminal summary then shows one PASS/FAIL line per
criterion regardless of pytest verbosity. The engine returns integers
(see `toricmld.germs.CaseData` and `toricmld.certify`); the `Fraction`
views below let tests state identities in rational arithmetic, the way
the definitions read.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

from toricmld import Germ, Vec2, germ_from_quotient_type, mld
from toricmld.germs import psi_of
from toricmld.lattices import _scaled_covector


def dot(m, v):
    """Duality pairing of a covector and a point, in rational arithmetic."""
    return m[0] * v[0] + m[1] * v[1]


def fraction_case_data(data, lat) -> SimpleNamespace:
    """The case analysis `data` of `lat` with `Fraction` and `Vec2` fields of the same names."""
    denom = lat.hnf[0]

    def ratio(r):
        return None if r is None else Fraction(*r)

    def over(v, s):
        return None if v is None else Vec2(Fraction(v[0], s), Fraction(v[1], s))

    return SimpleNamespace(
        tag=data.tag,
        gamma=ratio(data.gamma),
        v1=over(data.v1, 1),
        mld=ratio(data.mld),
        e1p=over(data.e1p, denom),
        e2p=over(data.e2p, denom),
        alpha=ratio(data.alpha),
        beta=ratio(data.beta),
        psi_prime=ratio(data.psi_prime),
        v2=over(data.v2, 1),
        lambda_prime=ratio(data.lambda_prime),
        q_min=data.q_min,
        c=ratio(data.c),
    )


def fraction_certificate(cert):
    """The certificate of the same class with `Vec2` covectors and points and `Fraction` weights."""

    def field(f):
        if len(f) == 3:
            s, x, y = f
            return Vec2(Fraction(x, s), Fraction(y, s))
        return Fraction(*f)

    return type(cert)(*map(field, cert))


def scaled_certificate(cert):
    """`fraction_certificate` undone: (s, x, y) covectors and points, (num, den) weights."""

    def field(f):
        if isinstance(f, Vec2):
            return _scaled_covector(f)
        return f.numerator, f.denominator

    return type(cert)(*map(field, cert))


_RESULTS: list[tuple[int, str, str]] = []


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _RESULTS.append((number, label, "FAIL"))
        raise
    _RESULTS.append((number, label, "PASS"))


@pytest.fixture
def criterion():
    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, status in sorted(_RESULTS):
        terminalreporter.write_line(f"criterion {number:02d} [{label}]: {status}")


BOUNDARY_LADDER = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))

THRESHOLDS = (
    Fraction(1, 7),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(4, 3),
    Fraction(2),
)


def _random_unit(rng: random.Random, r: int) -> int:
    while True:
        w = rng.randint(1, r)
        if math.gcd(w, r) == 1:
            return w


def _random_coefficient(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return rng.choice(BOUNDARY_LADDER)
    d = rng.randint(1, 12)
    return Fraction(rng.randint(0, d), d)


@pytest.fixture(scope="session")
def random_corpus() -> list[tuple[Germ, Fraction]]:
    """1000 seeded cyclic germs with thresholds, orders up to 500."""
    rng = random.Random(20240816)
    out = []
    while len(out) < 1000:
        r = rng.randint(1, 500)
        germ = germ_from_quotient_type(
            r, 1, _random_unit(rng, r), _random_coefficient(rng), _random_coefficient(rng)
        )
        out.append((germ, rng.choice(THRESHOLDS)))
    return out


@pytest.fixture(scope="session")
def standard_corpus() -> list[Germ]:
    """200 seeded cyclic germs with standard coefficients and positive value."""
    ladder = [Fraction(m - 1, m) for m in range(1, 9)] + [Fraction(1)]
    rng = random.Random(716)
    out: list[Germ] = []
    while len(out) < 200:
        r = rng.randint(1, 60)
        germ = germ_from_quotient_type(
            r, 1, _random_unit(rng, r), rng.choice(ladder), rng.choice(ladder)
        )
        if psi_of(germ).is_zero() or mld(germ) <= 0:
            continue
        out.append(germ)
    return out

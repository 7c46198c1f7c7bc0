"""The Klein sail engine against convex hulls, the oracle and box scans.

The sail walk replaces every enumeration in the engine, so it is tested
against what it replaces: the sail itself against a convex hull of the
lattice points, the minimum and its full minimizer list against the
oracle, and the best covector against a scan of the dual lattice's box.
Property tests are seeded (`derandomize=True`), so every run draws the
same examples.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricmld.certify
import toricmld.cli
import toricmld.germs
from toricmld.cli import main
from toricmld.errors import VerificationFailure
from toricmld.germs import (
    case_analysis_lattice,
    gamma_max_lattice,
    mld_argmin_lattice,
    sail_minimum,
)
from toricmld.lattices import (
    E1,
    E2,
    Lattice,
    Vec2,
    _scaled_covector,
    dual,
    klein_sail,
    lattice_from_generators,
    lattice_from_quotient_type,
    superlattices,
    vec,
)
from toricmld.oracle import mld_oracle_lattice

from conftest import is_primitive

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDED = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Interior psi with coprime denominators, psi on each axis, and zero.
PSIS = (
    vec(1, 1),
    vec(Fraction(1, 2), Fraction(1, 3)),
    vec(Fraction(5, 6), Fraction(2, 9)),
    vec(1, 0),
    vec(0, Fraction(2, 3)),
    vec(0, 0),
)


def sail_points(lat) -> list[tuple[int, int]]:
    sail = klein_sail(lat)
    points = [(e.x + t * e.dx, e.y + t * e.dy) for e in sail.edges for t in range(e.length)]
    last = sail.edges[-1]
    return points + [(last.x + last.length * last.dx, last.y + last.length * last.dy)]


def hull_points(lat) -> list[tuple[int, int]]:
    """Lattice points on the lower-left convex hull, scaled like the sail.

    Every sail point lies in the box spanned by the two primitive axis
    points, so the hull of the lowest point of each column of that box
    has the sail as its falling part.
    """
    _, a, b, d = lat.hnf
    width = a * (d // math.gcd(b, d))
    lowest = []
    for i in range(width // a + 1):
        y = (i * b) % d
        lowest.append((i * a, y if (i, y) != (0, 0) else d))
    hull: list[tuple[int, int]] = []
    for p in lowest:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0:
                break
            hull.pop()
        hull.append(p)
    corners = hull[: next(k for k, p in enumerate(hull) if p[1] == 0) + 1]
    return [
        p
        for p in lowest
        if any(
            (p[0] - x0) * (y1 - y0) == (p[1] - y0) * (x1 - x0) and x0 <= p[0] <= x1
            for (x0, y0), (x1, y1) in zip(corners, corners[1:])
        )
    ]


def test_klein_sail_is_the_convex_hull_boundary():
    lattices = list(superlattices(24))
    lattices += [dual(lat) for lat in lattices]
    # A lattice that is no superlattice of the integer plane.
    lattices.append(lattice_from_generators([(Fraction(3, 4), Fraction(-5, 6)), (2, Fraction(7))]))
    for lat in lattices:
        assert sail_points(lat) == hull_points(lat), lat
        edges = klein_sail(lat).edges
        for e, f in zip(edges, edges[1:]):
            assert e.dx * f.dy - e.dy * f.dx > 0, "edges are maximal and turn one way"


def test_a_lattice_keeps_its_sail_and_dual():
    # Each is computed on the first call and kept by the lattice object;
    # equality and hashing still read only the Hermite normal form.
    for lat in superlattices(12):
        fresh = Lattice(hnf=lat.hnf)
        assert klein_sail(lat) is klein_sail(lat)
        assert dual(lat) is dual(lat)
        assert lat == fresh and hash(lat) == hash(fresh)
        assert klein_sail(fresh) == klein_sail(lat) and dual(fresh) == dual(lat)
        assert lat == fresh and hash(lat) == hash(fresh)


def test_klein_sail_compresses_collinear_runs():
    # 1/r(1, r-1) has r - 1 collinear sail points on a single edge.
    r = 10**18 + 9
    sail = klein_sail(lattice_from_quotient_type(r, 1, r - 1))
    assert sail.denominator == r
    assert sail.edges == [(0, r, 1, -1, r)]


def box_gamma_max(lat, psi, lam):
    """Best covector by scanning every dual point of the box m <= 2*psi/lam."""
    (a, b), (_, d) = dual(lat).basis
    width, height = 2 * psi.x1 / lam, 2 * psi.x2 / lam
    best = None
    for i in range(math.floor(width / a) + 1):
        for j in range(math.ceil(-i * b / d), math.floor((height - i * b) / d) + 1):
            m = Vec2(i * a, i * b + j * d)
            if m.is_zero():
                continue
            gamma = min(p / x for p, x in zip(psi, m) if x > 0)
            if best is None or gamma > best[0]:
                best = (gamma, m)
    return best


def check_against_brute_force(lat, psi) -> None:
    expected = mld_oracle_lattice(lat, psi)
    assert mld_argmin_lattice(lat, psi) == expected, (lat, psi)
    minimum = sail_minimum(lat, _scaled_covector(psi))
    denom, (x, y) = lat.hnf[0], minimum.first
    assert (minimum.value, Vec2(Fraction(x, denom), Fraction(y, denom)), minimum.count) == (
        (expected[0].numerator, expected[0].denominator),
        expected[1][0],
        len(expected[1]),
    )
    if psi.is_zero():
        return
    assert gamma_max_lattice(dual(lat), psi, expected[0]) == box_gamma_max(lat, psi, expected[0])


def test_engine_matches_brute_force_on_every_small_superlattice():
    # Includes the imprimitive lattices that `enumerate --mode all` visits.
    for lat in superlattices(40):
        for psi in PSIS:
            check_against_brute_force(lat, psi)


coefficients = st.sampled_from(
    [Fraction(0), Fraction(1)] + [Fraction(p, q) for q in range(2, 7) for p in range(1, q)]
)
psis = st.one_of(
    st.builds(Vec2, coefficients, coefficients),
    st.builds(lambda c: Vec2(c, Fraction(0)), coefficients),
    st.builds(lambda c: Vec2(Fraction(0), c), coefficients),
)


@st.composite
def cyclic_lattices(draw):
    r = draw(st.integers(min_value=2, max_value=2000))
    kind = draw(st.sampled_from(["one", "minus_one", "unit"]))
    if kind == "one":
        w = 1
    elif kind == "minus_one":
        w = r - 1
    else:
        units = st.integers(min_value=1, max_value=r - 1).filter(lambda u: math.gcd(u, r) == 1)
        w = draw(units)
    return lattice_from_quotient_type(r, 1, w)


@st.composite
def superlattice_lattices(draw):
    """Superlattices of the integer plane from one or two rational generators."""
    gens = [E1, E2]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        q = draw(st.integers(min_value=1, max_value=40))
        x, y = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        gens.append(vec(Fraction(x, q), Fraction(y, q)))
    return lattice_from_generators(gens)


@SEEDED
@given(cyclic_lattices(), psis)
def test_cyclic_engine_matches_brute_force(lat, psi):
    check_against_brute_force(lat, psi)


@SEEDED
@given(superlattice_lattices(), psis)
def test_superlattice_engine_matches_brute_force(lat, psi):
    check_against_brute_force(lat, psi)


def test_property_draws_reach_imprimitive_and_boundary_cases():
    # The strategies above are only useful if they reach the edge cases.
    seen = set()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(superlattice_lattices(), psis)
    def record(lat, psi):
        primitive = is_primitive(lat, E1) and is_primitive(lat, E2)
        seen.add("primitive" if primitive else "imprimitive")
        seen.add("zero" if psi.is_zero() else "axis" if 0 in psi else "interior")

    record()
    assert seen == {"imprimitive", "primitive", "zero", "axis", "interior"}


LARGE_ORDER = """
import json, sys, time
from toricmld.cli import main
start = time.perf_counter()
code = main(["classify", "--type", sys.argv[1], "--t", sys.argv[2]])
print(json.dumps({"code": code, "seconds": time.perf_counter() - start}))
"""
R = 10**18 + 9


@pytest.mark.parametrize(
    "w, t, expected",
    [(1, "1/2", Fraction(2, R)), (R - 1, "1", Fraction(1))],
    ids=["1/r(1,1)", "1/r(1,r-1)"],
)
def test_classify_at_order_ten_to_the_eighteen(w, t, expected):
    """mld 2/r on 1/r(1,1) and 1 on 1/r(1,r-1), from closed forms.

    Any O(r) step would run for years here; the child is stopped well
    before that, and its own clock must read under 2 s.
    """
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_ORDER, f"{R},1,{w}", t],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    *records, timing = proc.stdout.strip().splitlines()
    report = json.loads(timing)
    assert report["code"] == 0, proc.stderr
    assert report["seconds"] < 2
    (record,) = records
    assert Fraction(json.loads(record)["mld"]) == expected


def test_wrong_sail_minimum_is_a_verification_failure(monkeypatch, capsys):
    real = toricmld.germs.sail_minimum

    def wrong(lat, psi, *sail):
        minimum = real(lat, psi, *sail)
        num, den = minimum.value
        return minimum._replace(value=(1000 * num + den, 1000 * den))  # value + 1/1000

    lat = lattice_from_quotient_type(5, 1, 1)
    with pytest.raises(VerificationFailure, match=r"fails for Lattice\[.*\] at psi \(1,1\)"):
        case_analysis_lattice(lat, (1, 1, 1), wrong(lat, (1, 1, 1)))

    for module in (toricmld.germs, toricmld.certify, toricmld.cli):
        monkeypatch.setattr(module, "sail_minimum", wrong)
    code = main(["classify", "--type", "5,1,1", "--t", "1/3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("verification failure: ")
    assert "gamma*(1 + psi_prime*(1 - alpha)) == lam" in captured.err

"""Brute-force oracle behavior, checked on hand-computed quotients."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld import Lattice, germ_from_quotient_type, mld, mld_argmin, mld_oracle, oracle
from toricmld.germs import make_germ
from toricmld.lattices import (
    STANDARD_LATTICE,
    dual,
    lattice_from_generators,
    lattice_from_quotient_type,
    residues,
    sublattices_of_standard,
    superlattices,
    vec,
)
from toricmld.oracle import lawrence_oracle, mld_oracle_lattice, tlc_oracle

ONES = vec(1, 1)


def test_mld_oracle_lattice_examples():
    assert mld_oracle_lattice(STANDARD_LATTICE, ONES) == (Fraction(2), [ONES])
    chain = lattice_from_quotient_type(3, 2, 1)
    value, argmin = mld_oracle_lattice(chain, ONES)
    assert value == 1
    assert argmin == [vec(Fraction(1, 3), Fraction(2, 3)), vec(Fraction(2, 3), Fraction(1, 3))]
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert mld_oracle_lattice(fifth, ONES) == (
        Fraction(2, 5),
        [vec(Fraction(1, 5), Fraction(1, 5))],
    )


def test_mld_oracle_rejects_negative_psi():
    with pytest.raises(ValueError, match="nonnegative"):
        mld_oracle_lattice(STANDARD_LATTICE, vec(-1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        mld_oracle_lattice(STANDARD_LATTICE, vec(0, Fraction(-1, 7)))
    with pytest.raises(ValueError, match="nonnegative"):
        oracle.mld_oracle_value(STANDARD_LATTICE, vec(-1, 1))


def test_mld_oracle_zero_psi_lists_all_representatives():
    # With psi = 0 every representative attains the minimum, so the
    # minimizer list is the full residue set; this cross-checks the
    # oracle's independent quotient enumeration against residues().
    for lat in (
        STANDARD_LATTICE,
        lattice_from_quotient_type(7, 1, 3),
        lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))]),
        lattice_from_generators([(Fraction(1, 6), Fraction(1, 3)), (0, Fraction(1, 2))]),
    ):
        value, argmin = mld_oracle_lattice(lat, vec(0, 0))
        assert value == 0
        assert argmin == residues(lat)


def test_mld_oracle_on_germs():
    assert mld_oracle(make_germ(STANDARD_LATTICE, 0, 0)) == (Fraction(2), [ONES])
    assert mld_oracle(make_germ(STANDARD_LATTICE, 1, 1)) == (Fraction(0), [ONES])
    germ = make_germ(lattice_from_quotient_type(5, 1, 1), Fraction(1, 2), 0)
    value, argmin = mld_oracle(germ)
    assert value == Fraction(1, 10) + Fraction(1, 5)
    assert argmin == [vec(Fraction(1, 5), Fraction(1, 5))]


def test_oracle_matches_longhand_enumeration():
    # Recompute each quotient longhand in Fractions from both basis rows
    # and compare value and minimizers. `lattice_from_generators` must reduce the
    # sheared rows (r1, r1 + r2) to the canonical basis, so the sheared
    # entries are checked against the triangular rows of their lattice.
    def wrap(x: Fraction) -> Fraction:
        shifted = x - (x.numerator // x.denominator)
        return shifted if shifted else Fraction(1)

    cyclic = [
        lattice_from_quotient_type(r, 1, w)
        for r, w in ((1, 0), (2, 1), (5, 2), (12, 7), (30, 11))
    ]
    sheared = [
        lattice_from_generators((lat.basis[0], lat.basis[0] + lat.basis[1])) for lat in cyclic
    ]
    assert [lat.basis for lat in sheared] == [lat.basis for lat in cyclic]
    psis = (vec(Fraction(3, 7), Fraction(2)), vec(0, 0), vec(1, 1), vec(Fraction(5, 6), 0))
    for lat in cyclic + sheared + list(superlattices(24)):
        r1, r2 = lat.basis
        n1 = math.lcm(r1.x1.denominator, r1.x2.denominator)
        n2 = math.lcm(r2.x1.denominator, r2.x2.denominator)
        reps = {
            vec(wrap(i * r1.x1 + j * r2.x1), wrap(i * r1.x2 + j * r2.x2))
            for i in range(n1)
            for j in range(n2)
        }
        for psi in psis:
            pairings = {m: m.x1 * psi.x1 + m.x2 * psi.x2 for m in reps}
            best = min(pairings.values())
            argmin = sorted(m for m, v in pairings.items() if v == best)
            assert mld_oracle_lattice(lat, psi) == (best, argmin)


def test_oracle_refuses_an_index_above_its_limit(monkeypatch):
    # The pinned order 1,000,003 must stay within reach of `verify`.
    assert oracle.ORACLE_LIMIT >= 1_000_003
    monkeypatch.setattr(oracle, "ORACLE_LIMIT", 9)
    third = lattice_from_generators([(Fraction(1, 3), 0), (0, Fraction(1, 3))])
    assert mld_oracle_lattice(third, ONES)[0] == Fraction(2, 3)
    for lat, n in (
        (lattice_from_quotient_type(10, 1, 3), 10),
        (lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 6))]), 12),
        (lattice_from_quotient_type(10**12, 1, 7), 10**12),
    ):
        for oracle_of in (mld_oracle_lattice, oracle.mld_oracle_value):
            with pytest.raises(ValueError, match=f"^index {n} is above the oracle limit of 9 "):
                oracle_of(lat, ONES)


# Zero, axis and interior psi: with a zero coordinate the points of a
# column, or all first points of the columns, tie, so each kind is checked.
WALK_PSIS = (
    vec(0, 0),
    vec(1, 0),
    vec(0, Fraction(5, 2)),
    vec(Fraction(3, 7), 0),
    ONES,
    vec(Fraction(2, 3), Fraction(1, 5)),
    vec(Fraction(3, 7), 2),
)


def naive_argmin(points, denom, psi):
    """Least pairing with psi over the points (x, y)/denom and its sorted minimizers, in Fractions."""
    pairings = {vec(Fraction(x, denom), Fraction(y, denom)): psi.x1 * x + psi.x2 * y for x, y in points}
    best = min(pairings.values())
    return best / denom, sorted(m for m, value in pairings.items() if value == best)


def check_walks(lat, psi, points, denom):
    """Both oracles against the naive enumeration of the points (x, y)/denom."""
    expected = naive_argmin(points, denom, psi)
    assert oracle.mld_oracle_value(lat, psi) == expected[0], (lat, psi)
    assert mld_oracle_lattice(lat, psi) == expected, (lat, psi)


def test_walk_matches_naive_enumeration_on_every_small_superlattice():
    # Each superlattice of index n <= 40 is the dual of an integer
    # sublattice S of index n; its points in (0, 1]^2 are the (x, y)/n,
    # 1 <= x, y <= n, that pair integrally with both rows of S. Both the
    # value walk and the full oracle, minimizers included, are checked.
    cases = 0
    for n in range(1, 41):
        for sub in sublattices_of_standard(n):
            rows = [(int(g.x1), int(g.x2)) for g in sub.basis]
            points = [
                (x, y)
                for x in range(1, n + 1)
                for y in range(1, n + 1)
                if all((m1 * x + m2 * y) % n == 0 for m1, m2 in rows)
            ]
            assert len(points) == n
            lat = dual(sub)
            for psi in WALK_PSIS:
                check_walks(lat, psi, points, n)
                cases += 1
    assert cases == 7 * len(list(superlattices(40)))


@st.composite
def quotient_types(draw):
    r = draw(st.integers(1, 2000))
    coprime = st.integers(0, r - 1).filter(lambda w: math.gcd(w, r) == 1)
    return r, draw(coprime), draw(coprime)


coordinates = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(quotient_types(), coordinates, coordinates)
def test_walk_matches_naive_enumeration_on_cyclic_quotients(kind, c1, c2):
    # 1/r(w1, w2) is generated by (w1, w2)/r modulo Z^2: its classes are
    # the multiples k*(w1, w2)/r, k = 1..r, each coordinate taken in (0, 1].
    r, w1, w2 = kind
    points = [(k * w1 % r or r, k * w2 % r or r) for k in range(1, r + 1)]
    check_walks(lattice_from_quotient_type(r, w1, w2), vec(c1, c2), points, r)


def test_walk_refuses_a_lattice_without_the_integer_plane():
    # ((1/2, 1/4), (0, 1)) has a | D and d | D, but 2*r1 = (1, 1/2) leaves
    # e1 outside it; the walk's columns would miss classes.
    lat = Lattice(hnf=(4, 2, 1, 4))
    for oracle_of in (mld_oracle_lattice, oracle.mld_oracle_value):
        with pytest.raises(ValueError, match="integer plane"):
            oracle_of(lat, ONES)


def test_full_oracle_at_order_one_million_peaks_under_60_mb():
    # The walk keeps one column at a time; a set of one point per class
    # would take about 170 MB at this order. The oracle runs in a
    # grandchild: a process's peak counts its parent's memory when it is
    # forked from it, and the small probe keeps the large test runner out.
    run = (
        "from toricmld import germ_from_quotient_type, mld_oracle\n"
        "value, argmin = mld_oracle(germ_from_quotient_type(1000003, 1, 7))\n"
        "print(value, len(argmin))\n"
    )
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, run],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    value, count, peak_kb = proc.stdout.split()  # ru_maxrss is in kilobytes on Linux
    assert (Fraction(value), int(count)) == (mld(germ_from_quotient_type(1000003, 1, 7)), 1)
    assert int(peak_kb) < 60 * 1024, peak_kb


def test_package_holds_no_assert_statement():
    # `python -O` compiles asserts out, so no check of the program may be one.
    package = Path(oracle.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_shares_no_code_with_the_engine():
    # Outside TYPE_CHECKING the oracle may take only the plane types
    # from the package, so an engine bug cannot vouch for itself.
    tree = ast.parse(Path(oracle.__file__).read_text())
    type_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "toricmld" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "toricmld":
                continue
            assert module == "lattices"
            assert {a.name for a in node.names} <= {"Lattice", "Rational", "Vec2"}


def _oracle_imports(tree):
    """Names each `from .oracle` / `toricmld.oracle` import of a module takes."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level == 1 and module == "oracle") or module == "toricmld.oracle":
                names += [a.name for a in node.names]
            elif (node.level == 1 and not module) or module == "toricmld":
                names += [a.name for a in node.names if a.name == "oracle"]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name == "toricmld.oracle"]
    return names


@pytest.mark.parametrize(
    "module", ["certify.py", "geometry.py", "germs.py", "lattices.py", "records.py"]
)
def test_engine_modules_do_not_import_the_oracle(module):
    # The engine proves its own results, the complement checker included;
    # the oracle is for `verify`.
    tree = ast.parse((Path(oracle.__file__).parent / module).read_text(encoding="utf-8"))
    assert _oracle_imports(tree) == []


def test_general_path_handles_noncyclic_quotients():
    half = lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    value, argmin = mld_oracle_lattice(half, ONES)
    assert value == 1
    assert argmin == [vec(Fraction(1, 2), Fraction(1, 2))]
    assert len(residues(half)) == 4

    sixth = lattice_from_generators([(Fraction(1, 6), 0), (0, Fraction(1, 3))])
    value, argmin = mld_oracle_lattice(sixth, vec(2, 1))
    assert value == Fraction(2, 3)
    assert argmin == [vec(Fraction(1, 6), Fraction(1, 3))]


def test_tlc_oracle():
    assert tlc_oracle(STANDARD_LATTICE, ONES, 2)
    assert not tlc_oracle(STANDARD_LATTICE, ONES, Fraction(5, 2))
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert tlc_oracle(fifth, ONES, Fraction(2, 5))
    assert not tlc_oracle(fifth, ONES, Fraction(1, 2))
    with pytest.raises(ValueError, match="positive"):
        tlc_oracle(STANDARD_LATTICE, ONES, 0)


def test_lawrence_oracle():
    assert lawrence_oracle(STANDARD_LATTICE, 1, 1)
    assert lawrence_oracle(STANDARD_LATTICE, 2, 1)
    assert not lawrence_oracle(STANDARD_LATTICE, 3, 1)
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert not lawrence_oracle(fifth, 1, 2)
    assert lawrence_oracle(fifth, 2, 5)
    with pytest.raises(ValueError, match="positive"):
        lawrence_oracle(STANDARD_LATTICE, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        lawrence_oracle(STANDARD_LATTICE, 1, 0)


def test_engine_agrees_with_oracle(random_corpus):
    for germ, _ in random_corpus[:150]:
        value, argmin = mld_oracle(germ)
        assert mld_argmin(germ) == (value, argmin)

"""Lattice core: canonical bases, duals, residues, witnesses."""

import ast
import importlib
import inspect
import math
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from toricmld.germs import make_germ, mld_argmin_lattice, mld_lattice
from toricmld.lattices import (
    E1,
    E2,
    STANDARD_LATTICE,
    _scaled_covector,
    _split_scaled,
    basis_order,
    contains,
    cyclic_type,
    dual,
    format_rational,
    index,
    lattice_from_generators,
    lattice_from_quotient_type,
    parse_rational,
    points_in_box,
    residues,
    sublattices_of_standard,
    superlattices,
    swapped_lattice,
    vec,
)
from toricmld.oracle import mld_oracle_lattice
from toricmld.records import lattice_to_json

from conftest import dot, is_primitive


def test_rational_grammar_accepts():
    assert parse_rational("3") == 3
    assert parse_rational("-3") == -3
    assert parse_rational("0") == 0
    assert parse_rational("2/5") == Fraction(2, 5)
    assert parse_rational("-7/12") == Fraction(-7, 12)
    assert parse_rational("10/4") == Fraction(5, 2)


@pytest.mark.parametrize(
    "text, value",
    [
        ("007", Fraction(7)),
        ("0/5", Fraction(0)),
        ("-0", Fraction(0)),
        ("-12/18", Fraction(-2, 3)),
        ("1234567890" * 4 + "/15", Fraction(int("1234567890" * 4), 15)),
    ],
)
def test_rational_grammar_gives_reduced_fractions(text, value):
    # The digit strings go to int(), so leading zeros, a zero numerator, a
    # signed zero and long numerators must come out as Fraction(text) does.
    parsed = parse_rational(text)
    assert type(parsed) is Fraction and parsed == value == Fraction(text)
    assert math.gcd(parsed.numerator, parsed.denominator) == 1


@pytest.mark.parametrize(
    "bad",
    [
        "", "1/0", "1.5", "+3", "1/-2", "-", "1/", "/2", "3 ", " 3", "0x1", "2/02",
        # int() alone would take these two: a digit separator and an Arabic-Indic three.
        "1_000", "\u0663",
        # Only strings are literals.
        3, None, Fraction(1, 2),
    ],
)
def test_rational_grammar_rejects(bad):
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(bad)


def test_rational_format_round_trip():
    for text in ["0", "3", "-3", "2/5", "-7/12", "1/999"]:
        assert format_rational(parse_rational(text)) == text
    # Non-reduced input reduces on the way in.
    assert format_rational(parse_rational("10/4")) == "5/2"


def test_generators_examples():
    assert lattice_from_generators([(1, 0), (0, 1)]) == STANDARD_LATTICE
    assert STANDARD_LATTICE.basis == (vec(1, 0), vec(0, 1))

    fifth = lattice_from_generators([(1, 0), (0, 1), (Fraction(1, 5), Fraction(1, 5))])
    assert fifth.basis == (vec(Fraction(1, 5), Fraction(1, 5)), vec(0, 1))

    # Generators that do not span the plane are invalid input.
    for gens in ([(2, 0)], [(1, 1), (-2, -2), (0, 0)], [], [(0, 0)]):
        with pytest.raises(ValueError, match="do not span the plane"):
            lattice_from_generators(gens)
    with pytest.raises(ValueError, match="do not span the plane"):
        lattice_from_generators((vec(1, 2), vec(2, 4)))


def test_quotient_type_examples():
    assert lattice_from_quotient_type(1, 0, 0) == STANDARD_LATTICE
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert fifth.basis == (vec(Fraction(1, 5), Fraction(1, 5)), vec(0, 1))
    assert index(fifth) == 5


def test_quotient_type_errors_name_the_weight():
    with pytest.raises(ValueError, match="first weight 2"):
        lattice_from_quotient_type(4, 2, 1)
    with pytest.raises(ValueError, match="second weight 6"):
        lattice_from_quotient_type(9, 1, 6)
    with pytest.raises(ValueError, match="order"):
        lattice_from_quotient_type(0, 1, 1)


def test_canonical_form_uniqueness():
    # Recombining generators never changes the canonical basis.
    rng = random.Random(101)
    for _ in range(200):
        r = rng.randint(1, 30)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        lat = lattice_from_quotient_type(r, 1, w)
        g1, g2 = lat.basis
        c = [rng.randint(-4, 4) for _ in range(4)]
        regen = [
            g1.scaled(Fraction(c[0])) + g2.scaled(Fraction(c[1])),
            g1.scaled(Fraction(c[2])) + g2.scaled(Fraction(c[3])),
            g1,
            g2,
        ]
        rng.shuffle(regen)
        assert lattice_from_generators(regen) == lat


def test_contains_examples():
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert contains(STANDARD_LATTICE, (1, 1))
    assert contains(fifth, (Fraction(2, 5), Fraction(2, 5)))
    assert not contains(fifth, (Fraction(1, 5), Fraction(2, 5)))
    assert contains(fifth, (Fraction(-3, 5), Fraction(2, 5)))


def test_index_examples():
    assert index(STANDARD_LATTICE) == 1
    assert index(lattice_from_quotient_type(5, 1, 1)) == 5
    third = lattice_from_generators([(Fraction(1, 3), 0), (0, Fraction(1, 3))])
    assert index(third) == 9
    with pytest.raises(ValueError):
        index(lattice_from_generators([(2, 0), (0, 2)]))


def test_residues_examples():
    assert residues(STANDARD_LATTICE) == [vec(1, 1)]
    fifth = lattice_from_quotient_type(5, 1, 1)
    assert residues(fifth) == [
        vec(Fraction(k, 5), Fraction(k, 5)) for k in range(1, 5)
    ] + [vec(1, 1)]
    assert residues(lattice_from_quotient_type(3, 2, 1)) == [
        vec(Fraction(1, 3), Fraction(2, 3)),
        vec(Fraction(2, 3), Fraction(1, 3)),
        vec(1, 1),
    ]


def test_residues_property():
    rng = random.Random(102)
    pool = list(superlattices(24))
    for _ in range(100):
        lat = rng.choice(pool)
        reps = residues(lat)
        assert len(reps) == index(lat)
        assert len(set(reps)) == len(reps)
        assert reps == sorted(reps)
        for p in reps:
            assert 0 < p.x1 <= 1 and 0 < p.x2 <= 1
            assert contains(lat, p)


def test_integer_residue_scan_matches_the_oracle():
    # residues() and the engine's minimum scan work in integers scaled
    # by the basis's common denominator; the oracle walks the quotient's
    # columns in code of its own. Zero psi makes every
    # representative a minimizer; psi with coprime denominators checks
    # the scaling of the pairing.
    psis = (vec(Fraction(1, 3), Fraction(5, 7)), vec(Fraction(5, 6), Fraction(2, 9)))
    for lat in superlattices(24):
        value, argmin = mld_oracle_lattice(lat, vec(0, 0))
        assert value == 0
        assert residues(lat) == argmin
        for psi in psis:
            expected = mld_oracle_lattice(lat, psi)
            assert mld_lattice(lat, psi) == expected[0]
            assert mld_argmin_lattice(lat, psi) == expected


def test_double_duality_and_pairing():
    rng = random.Random(103)
    lats = [lat for lat in superlattices(12)]
    for _ in range(60):
        r = rng.randint(1, 40)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        lats.append(lattice_from_quotient_type(r, 1, w))
    for lat in lats:
        m_lat = dual(lat)
        assert dual(m_lat) == lat
        for m in m_lat.basis:
            for v in lat.basis:
                assert dot(m, v).denominator == 1


def test_dual_examples():
    assert dual(STANDARD_LATTICE) == STANDARD_LATTICE
    fifth = lattice_from_quotient_type(5, 1, 1)
    m_lat = dual(fifth)
    assert m_lat.basis == (vec(1, 4), vec(0, 5))
    # Exactly the integer covectors with coordinate sum divisible by 5.
    for i in range(6):
        for j in range(6):
            assert contains(m_lat, (i, j)) == ((i + j) % 5 == 0)


def test_is_primitive():
    assert is_primitive(STANDARD_LATTICE, (1, 0))
    assert not is_primitive(STANDARD_LATTICE, (2, 0))
    mixed = lattice_from_generators([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 4))])
    assert not is_primitive(mixed, (0, 1))
    assert contains(mixed, (0, Fraction(1, 2)))
    assert is_primitive(lattice_from_quotient_type(5, 1, 1), (1, 0))
    with pytest.raises(ValueError):
        is_primitive(STANDARD_LATTICE, (0, 0))
    with pytest.raises(ValueError):
        is_primitive(STANDARD_LATTICE, (Fraction(1, 2), 0))


def _make_germ_error(lat):
    try:
        make_germ(lat, 0, 0)
    except ValueError as exc:
        return str(exc)
    return None


def _primitivity_error(lat):
    """The text `make_germ` must raise for a lattice holding the integer plane, by the definition."""
    for name, e in (("e1", E1), ("e2", E2)):
        if not is_primitive(lat, e):
            return f"unit point {name} is not primitive in the germ lattice"
    return None


def test_make_germ_checks_primitivity_as_defined():
    # make_germ reads primitivity off the Hermite normal form; the reference
    # solves for Fraction coordinates. Quotients with weights not coprime to
    # r make e1, e2 or both imprimitive at orders up to 2000.
    rng = random.Random(2028)
    quotients = []
    for _ in range(600):
        r = rng.randint(1, 2000)
        point = (Fraction(rng.randrange(r), r), Fraction(rng.randrange(r), r))
        quotients.append(lattice_from_generators([E1, E2, point]))
    seen = defaultdict(int)
    for lat in [*superlattices(40), *quotients]:
        expected = _primitivity_error(lat)
        assert _make_germ_error(lat) == expected, lat
        seen[expected] += 1
    assert len(seen) == 3 and min(seen.values()) > 50, seen

    for lat in sublattices_of_standard(6):
        assert _make_germ_error(lat) == "lattice does not contain the integer plane"
    half = Fraction(1, 2)
    assert make_germ(STANDARD_LATTICE, half, 1).b1 is half


def test_points_in_box_against_brute_force():
    rng = random.Random(106)
    for _ in range(60):
        r = rng.randint(1, 12)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        lat = lattice_from_quotient_type(r, 1, w)
        c1 = Fraction(rng.randint(0, 18), rng.randint(1, 3))
        c2 = Fraction(rng.randint(0, 18), rng.randint(1, 3))
        got = points_in_box(lat, c1, c2)
        assert got == sorted(got)
        # Every subgroup point lies on the 1/r grid, so scanning it is exhaustive.
        expected = set()
        for i in range(int(c1 * r) + 1):
            for j in range(int(c2 * r) + 1):
                p = vec(Fraction(i, r), Fraction(j, r))
                if p.x1 <= c1 and p.x2 <= c2 and contains(lat, p):
                    expected.add(p)
        assert set(got) == expected
    assert points_in_box(STANDARD_LATTICE, -1, 5) == []


def test_equal_lattices_share_one_basis():
    # A lattice given by sheared rows is the same lattice, so everything
    # read off its basis (box points, the JSON rows) must agree too.
    lat = lattice_from_quotient_type(5, 1, 2)
    sheared = lattice_from_generators((lat.basis[0], lat.basis[0] + lat.basis[1]))
    assert sheared == lat and sheared.basis == lat.basis
    assert points_in_box(sheared, 1, 1) == points_in_box(lat, 1, 1)
    assert all(contains(lat, p) for p in points_in_box(sheared, 1, 1))
    assert lattice_to_json(sheared) == lattice_to_json(lat) == [["1/5", "2/5"], ["0", "1"]]


def test_split_along_covector_properties():
    rng = random.Random(107)
    for _ in range(150):
        r = rng.randint(1, 30)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        lat = lattice_from_quotient_type(r, 1, w)
        m_lat = dual(lat)
        m = vec(0, 0)
        while m.is_zero():
            a = m_lat.basis[0].scaled(Fraction(rng.randint(-3, 3)))
            b = m_lat.basis[1].scaled(Fraction(rng.randint(-3, 3)))
            m = a + b
        if not is_primitive(m_lat, m):
            continue
        e1x, e1y, e2x, e2y = _split_scaled(lat, *_scaled_covector(m))
        denom = lat.hnf[0]
        e1p = vec(Fraction(e1x, denom), Fraction(e1y, denom))
        e2p = vec(Fraction(e2x, denom), Fraction(e2y, denom))
        assert dot(m, e1p) == 1 and dot(m, e2p) == 0
        assert lattice_from_generators([e1p, e2p]) == lat
    with pytest.raises(ValueError):
        _split_scaled(lattice_from_quotient_type(5, 1, 1), *_scaled_covector(vec(1, 0)))


def test_swap_is_an_involution():
    lat = lattice_from_quotient_type(5, 1, 2)
    assert swapped_lattice(swapped_lattice(lat)) == lat
    assert swapped_lattice(lat) == lattice_from_quotient_type(5, 2, 1)
    assert swapped_lattice(STANDARD_LATTICE) == STANDARD_LATTICE


def test_cyclic_type_detection():
    assert cyclic_type(STANDARD_LATTICE) == (1, 0, 0)
    assert cyclic_type(lattice_from_quotient_type(5, 1, 2)) == (5, 1, 2)
    assert cyclic_type(lattice_from_quotient_type(5, 2, 1)) == (5, 1, 3)
    half = lattice_from_generators([(Fraction(1, 2), 0), (0, Fraction(1, 2))])
    assert cyclic_type(half) is None


def test_cyclic_type_matches_its_definition():
    # The definition, longhand: a residue of order n generates the
    # quotient; take the least weight pair over its unit multiples.
    for lat in superlattices(40):
        n = index(lat)
        expected = None
        for g in residues(lat):
            if math.lcm(g.x1.denominator, g.x2.denominator) == n:
                w1, w2 = int(g.x1 * n) % n, int(g.x2 * n) % n
                best = min(
                    ((u * w1) % n, (u * w2) % n) for u in range(n) if math.gcd(u, n) == 1
                )
                expected = (n, *best)
                break
        assert cyclic_type(lat) == expected


def _cyclic_type_by_residues(lat):
    """The O(index) residue loop that `cyclic_type` replaced, as a reference."""
    n = index(lat)
    denom, a, b, d = lat.hnf
    q = denom // d
    w2s = [
        (b + j * d) * n // denom % n
        for j in range(q)
        if math.gcd(a, b + j * d, denom) * n == denom
    ]
    return (n, q % n, min(w2s)) if w2s else None


def test_cyclic_type_matches_the_residue_loop():
    count = 0
    for lat in superlattices(150):
        assert cyclic_type(lat) == _cyclic_type_by_residues(lat), lat
        count += 1
    assert count == 18604
    # The closed form never walks the quotient: index 10^24 answers at once.
    huge = lattice_from_generators([(Fraction(1, 10**12), 0), (0, Fraction(1, 10**12))])
    assert cyclic_type(huge) is None
    big = lattice_from_quotient_type(10**24 + 7, 1, 10**12)
    assert cyclic_type(big) == (10**24 + 7, 1, 10**12)


def test_sublattice_and_superlattice_counts():
    # The number of index-n sublattices is the divisor sum of n.
    def sigma(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    for n in range(1, 13):
        subs = sublattices_of_standard(n)
        assert len(subs) == sigma(n)
        assert len(set(subs)) == len(subs)
        for sub in subs:
            assert abs(sub.basis[0].x1 * sub.basis[1].x2) == n
    sup = list(superlattices(12))
    assert len(sup) == sum(sigma(n) for n in range(1, 13))
    assert len(set(sup)) == len(sup)
    for lat in sup:
        assert contains(lat, (1, 0)) and contains(lat, (0, 1))


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toricmld"


# The oracle keeps its one assert: its import guard (test_oracle.py) lets
# it import nothing that could raise VerificationFailure.
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "oracle.py")
)
def test_module_has_no_assert_statement(module):
    # Broken identities raise VerificationFailure, which `python -O` keeps.
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_searches_a_box():
    # `points_in_box` is the brute-force reference of the tests; the
    # package defines it but neither exports it nor calls it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "lattices.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.alias) and node.name == "points_in_box")
        or (isinstance(node, ast.Name) and node.id == "points_in_box")
        or (isinstance(node, ast.Attribute) and node.attr == "points_in_box")
    ]
    assert found == []
    source = (PACKAGE / "lattices.py").read_text(encoding="utf-8")
    assert source.count("points_in_box") == 1


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_name_it_imports(module):
    # An import left behind by a refactor keeps a dead coupling alive.
    # `__init__.py` imports to re-export, and a TYPE_CHECKING import (the
    # oracle's) may serve string annotations only, so both are exempt.
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    type_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and id(node) not in type_only
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_bench_traced_names_resolve():
    # The benchmark's tracer wraps these by name and only lists a missing
    # one as absent, so a rename in the package would blind it. bench/ is
    # parsed here, not imported.
    tree = ast.parse((PACKAGE.parent.parent / "bench" / "tracing.py").read_text(encoding="utf-8"))
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FUNCTIONS"
    )
    assert names
    for qual in names:
        module, name = qual.split(".")
        function = getattr(importlib.import_module(f"toricmld.{module}"), name, None)
        assert callable(function) and not inspect.isgeneratorfunction(function), qual


def _fraction_coordinates(lat, v):
    """Coordinates of v in the rational basis ((a, b), (0, d)), from the definition."""
    r1, r2 = lat.basis
    x = v.x1 / r1.x1
    return x, (v.x2 - x * r1.x2) / r2.x2


def _sign(left, right):
    return (left > right) - (left < right)


def test_integer_identity_matches_the_fraction_definitions():
    # Every superlattice of index <= 30 and its swap, rebuilt from the
    # rational basis: equality, hashing, order, membership, primitivity,
    # index, dual and swap against their definitions in Fractions.
    lattices = []
    for lat in superlattices(30):
        swap = lattice_from_generators([g.swapped() for g in lat.basis])
        assert swapped_lattice(lat) == swap and swapped_lattice(lat).basis == swap.basis
        lattices += [lat, swap]
    by_index = defaultdict(list)
    rng = random.Random(108)
    for lat in lattices:
        r1, r2 = lat.basis
        assert r2.x1 == 0 and r1.x1 > 0 and 0 <= r1.x2 < r2.x2
        assert index(lat) == 1 / (r1.x1 * r2.x2)
        det = r1.x1 * r2.x2
        assert dual(lat) == lattice_from_generators(
            [(r2.x2 / det, -r2.x1 / det), (-r1.x2 / det, r1.x1 / det)]
        )
        assert lattice_from_generators(lat.basis) == lat
        by_index[index(lat)].append(lat)
        # Lattice points and points of a twice finer grid, most outside.
        denom = math.lcm(r1.x1.denominator, r1.x2.denominator, r2.x2.denominator)
        for _ in range(12):
            i, j = rng.randint(-4, 4), rng.randint(-4, 4)
            k, m = rng.randint(-2 * denom, 4 * denom), rng.randint(-2 * denom, 4 * denom)
            on_lattice = r1.scaled(Fraction(i)) + r2.scaled(Fraction(j))
            for v in (on_lattice, vec(Fraction(k, 2 * denom), Fraction(m, 2 * denom))):
                x, y = _fraction_coordinates(lat, v)
                inside = x.denominator == 1 and y.denominator == 1
                assert contains(lat, v) == inside
                if inside and not v.is_zero():
                    assert is_primitive(lat, v) == (math.gcd(int(x), int(y)) == 1)
    # Every pair up to index 12, then pairs within each index up to 30
    # (different indices never share a lattice).
    small = [lat for n in range(1, 13) for lat in by_index[n]]
    for group in [small] + [by_index[n] for n in range(13, 31)]:
        for lat in group:
            for other in group:
                same = lat.basis == other.basis
                assert (lat == other) == same
                assert not same or hash(lat) == hash(other)
                assert basis_order(lat, other) == _sign(lat.basis, other.basis)
    for _ in range(3000):
        lat, other = rng.choice(lattices), rng.choice(lattices)
        assert basis_order(lat, other) == _sign(lat.basis, other.basis)
    assert len(set(lattices)) == len({lat.basis for lat in lattices})
    # The index needs both unit points; rational lattices missing one.
    for _ in range(300):
        k = rng.randint(1, 6)
        lat = lattice_from_generators(
            [(rng.randint(1, 6), Fraction(rng.randint(0, 11), k)), (0, Fraction(rng.randint(1, 6), k))]
        )
        units = [_fraction_coordinates(lat, e) for e in (vec(1, 0), vec(0, 1))]
        if all(x.denominator == 1 and y.denominator == 1 for x, y in units):
            assert index(lat) == 1 / (lat.basis[0].x1 * lat.basis[1].x2)
        else:
            with pytest.raises(ValueError):
                index(lat)

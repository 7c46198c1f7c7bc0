"""The integer codecs of `records`, held to their reference definitions.

`lattice_to_json` formats the canonical basis straight from the integer
Hermite normal form and `lattice_from_json` reads the rows as integers
over their common denominator. Both must agree with the rational route:
the formatted basis rows, and `lattice_from_generators` on the parsed
rows, with the same error text on every malformed input. The line
encoder of sweeps, `record_lines`, must write exactly what
`record_to_json` and `dumps` write for each record.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld.certify import CaseA, CaseB, NotTLC, enumerate_germs
from toricmld.cli import STANDARD_BOUNDARY_VALUES
from toricmld.lattices import (
    index,
    lattice_from_generators,
    lattice_from_quotient_type,
    superlattices,
)
from toricmld.records import (
    dumps,
    lattice_from_json,
    lattice_to_json,
    record_from_json,
    record_lines,
    record_to_json,
    vec_from_json,
    vec_to_json,
)


def rational_lattice_to_json(lat):
    return [vec_to_json(row) for row in lat.basis]


def rational_lattice_from_json(data):
    if not isinstance(data, list):
        raise ValueError(f"not a lattice: {data!r}")
    lat = lattice_from_generators([vec_from_json(row) for row in data])
    index(lat)
    return lat


def test_encoding_matches_the_rational_basis_on_small_superlattices():
    lattices = list(superlattices(40))
    assert len(lattices) > 1000
    for lat in lattices:
        assert lattice_to_json(lat) == rational_lattice_to_json(lat), lat


@st.composite
def cyclic_lattices(draw):
    r = draw(st.integers(1, 10**12 - 1))
    w = draw(st.integers(0, r - 1).filter(lambda w: math.gcd(w, r) == 1))
    return lattice_from_quotient_type(r, 1, w)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cyclic_lattices())
def test_encoding_matches_the_rational_basis_on_large_cyclic_lattices(lat):
    data = lattice_to_json(lat)
    assert data == rational_lattice_to_json(lat)
    assert lattice_from_json(data).hnf == lat.hnf


@pytest.mark.parametrize(
    "rows",
    [
        [["1/5", "2/5"], ["0", "1"]],
        [["0", "1"], ["1/5", "2/5"]],
        [["0", "1"], ["1/5", "2/5"], ["-1/5", "-2/5"], ["2/4", "0/5"]],
        [["2/10", "4/10"], ["0", "3/3"], ["1", "0"]],
        [["-1/3", "0"], ["0", "-1/2"], ["1/6", "1/6"]],
        [["1/4", "1/8"], ["0", "1/2"]],
        [["-0", "001"], ["007", "-0"], ["1", "0"]],
        [["1", "0"], ["0", "1"], ["0/5", "-1/3"]],
    ],
)
def test_decoding_matches_the_generated_lattice(rows):
    lat = lattice_from_json(rows)
    assert lat.hnf == rational_lattice_from_json(rows).hnf
    assert lattice_from_json(lattice_to_json(lat)).hnf == lat.hnf


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1/2", "not a lattice"),
        ([["1", "0"], "0"], "not a vector"),
        ([["1", "0"], ["0", "1", "0"]], "not a vector"),
        ([["1/0", "0"], ["0", "1"]], "not a rational literal"),
        ([["1_000", "0"], ["0", "1"]], "not a rational literal"),
        ([["1", 1.5], ["0", "1"]], "not a rational literal"),
        ([["1", "0"], ["0", "1"], ["x", "0", "0"]], "not a vector"),
        ([], "do not span the plane"),
        ([["1/2", "1/3"]], "do not span the plane"),
        ([["1", "0"], ["2", "0"]], "do not span the plane"),
        ([["2", "0"], ["0", "1"]], "does not contain the integer plane"),
        ([["1", "1/2"], ["0", "2"]], "does not contain the integer plane"),
    ],
)
def test_decoding_errors_match_the_rational_route(rows, message):
    with pytest.raises(ValueError) as expected:
        rational_lattice_from_json(rows)
    with pytest.raises(ValueError) as got:
        lattice_from_json(rows)
    assert str(got.value) == str(expected.value)
    assert message in str(got.value)


STANDARD = [(a, b) for a in STANDARD_BOUNDARY_VALUES for b in STANDARD_BOUNDARY_VALUES]
# The boundary file of the pinned cyclic sweeps in tests/test_cli.py.
FILE_PAIRS = [(Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(0)), (Fraction(1, 2),) * 2]


def _reference_lines(records):
    return [dumps(record_to_json(record)) + "\n" for record in records]


@pytest.mark.parametrize(
    "mode, bound, t, pairs",
    [
        ("all", 8, Fraction(1, 4), STANDARD),
        ("cyclic", 60, Fraction(1, 2), FILE_PAIRS),
        ("cyclic", 1, Fraction(1, 3), STANDARD),
    ],
    ids=["mixed", "cyclic", "order-1"],
)
def test_record_lines_write_what_record_to_json_writes(mode, bound, t, pairs):
    records = list(enumerate_germs(mode, bound, t, pairs, include_not_tlc=True))
    expected = _reference_lines(records)
    assert list(record_lines(records)) == expected
    if mode == "all":
        # Every certificate case, and lattices with and without a type label.
        assert {type(record.certificate) for record in records} == {CaseA, CaseB, NotTLC}
        assert any('"type"' in line for line in expected)
        assert not all('"type"' in line for line in expected)
    # t changing while the lattice and the series list stay the same.
    alternating = [x for record in records for x in (record, record._replace(t=t / 2))]
    assert list(record_lines(alternating)) == _reference_lines(alternating)
    # The same records with no part shared between them (decoded afresh,
    # so each has its own lattice, t and boundary objects), in an order
    # where t, the lattice and the boundary change from one to the next.
    other_t = list(enumerate_germs(mode, bound, t / 2, pairs, include_not_tlc=True))
    mixed = [record_from_json(record_to_json(record)) for record in records] + other_t
    random.Random(0).shuffle(mixed)
    assert list(record_lines(mixed)) == _reference_lines(mixed)

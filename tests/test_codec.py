"""The integer lattice codec of `records`, held to its rational definition.

`lattice_to_json` formats the canonical basis straight from the integer
Hermite normal form and `lattice_from_json` reads the rows as integers
over their common denominator. Both must agree with the rational route:
the formatted basis rows, and `lattice_from_generators` on the parsed
rows, with the same error text on every malformed input.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld.lattices import (
    index,
    lattice_from_generators,
    lattice_from_quotient_type,
    superlattices,
)
from toricmld.records import lattice_from_json, lattice_to_json, vec_from_json, vec_to_json


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

"""Case analysis against its definitions, on generated germs.

Hypothesis runs derandomized, so every run draws the same germs. Each
returned `CaseData` is checked from scratch: the minimum against the
oracle, the covector and the split by membership and pairings, the
certificate by its decomposition of psi. The negative controls feed the
case analysis a wrong minimum and expect the identity it breaks by name.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld
from toricmld import (
    CaseB,
    CaseTag,
    Lattice,
    VerificationFailure,
    case_analysis_lattice,
    classify_tlc_lattice,
    contains,
    dot,
    dual,
    gamma_of,
    index,
    lattice_from_quotient_type,
    mld_oracle_lattice,
    vec,
)
from toricmld.cli import main
from toricmld.germs import sail_minimum
from toricmld.lattices import _scaled_covector

from conftest import fraction_case_data, fraction_certificate

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def cyclic_lattices(draw):
    r = draw(st.integers(1, 2000))
    w = draw(st.integers(0, r - 1).filter(lambda w: math.gcd(w, r) == 1))
    return lattice_from_quotient_type(r, 1, w)


@st.composite
def general_lattices(draw):
    # Duals of integer sublattices ((a, b), (0, d)): every superlattice of
    # the integer plane, unit points imprimitive included.
    a, d = draw(st.integers(1, 44)), draw(st.integers(1, 44))
    return dual(Lattice(hnf=(1, a, draw(st.integers(0, d - 1)), d)))


coefficients = st.fractions(min_value=0, max_value=1, max_denominator=12)
psis = st.tuples(coefficients, coefficients).filter(lambda psi: psi != (0, 0))


@PROPERTIES
@given(st.one_of(cyclic_lattices(), general_lattices()), psis)
def test_case_data_meets_its_definitions(lat, pair):
    psi = vec(*pair)
    data = fraction_case_data(case_analysis_lattice(lat, _scaled_covector(psi)), lat)
    assert data.mld == mld_oracle_lattice(lat, psi)[0]

    v1 = data.v1
    assert v1.x1.denominator == 1 and v1.x2.denominator == 1
    assert all(dot(v1, row).denominator == 1 for row in lat.basis)
    assert data.gamma == gamma_of(v1, psi)
    if data.tag is CaseTag.BOUNDARY_PSI:
        assert psi.x1 == 0 or psi.x2 == 0
        assert v1.scaled(data.mld) == psi
        return

    e1p, e2p = data.e1p, data.e2p
    assert contains(lat, e1p) and contains(lat, e2p)
    assert abs(e1p.x1 * e2p.x2 - e1p.x2 * e2p.x1) * index(lat) == 1
    assert 0 <= data.alpha < 1
    if data.gamma < data.mld:
        cert = fraction_certificate(classify_tlc_lattice(lat, psi, data.mld))
        assert isinstance(cert, CaseB)
        assert cert.m1.scaled(cert.t1) + cert.m2.scaled(cert.t2) == psi
        assert cert.t1 + cert.t2 == data.mld


def test_draws_reach_every_shape_of_the_case_analysis():
    # The property above is only useful if its draws reach every branch.
    seen = set()

    @PROPERTIES
    @given(st.one_of(cyclic_lattices(), general_lattices()), psis)
    def record(lat, pair):
        data = fraction_case_data(case_analysis_lattice(lat, _scaled_covector(vec(*pair))), lat)
        if data.tag is CaseTag.BOUNDARY_PSI:
            seen.add("boundary psi")
            return
        seen.add("unbounded" if data.beta is None else "bounded")
        seen.add("alpha = 0" if data.alpha == 0 else "alpha > 0")
        seen.add("psi_prime = 0" if data.psi_prime == 0 else "psi_prime > 0")
        seen.add("case b" if data.gamma < data.mld else "case a at mld")

    record()
    assert seen == {
        "boundary psi", "unbounded", "bounded", "alpha = 0", "alpha > 0",
        "psi_prime = 0", "psi_prime > 0", "case b", "case a at mld",
    }


FIFTH = lattice_from_quotient_type(5, 1, 1)
ONES = (1, 1, 1)
MINIMUM = sail_minimum(FIFTH, ONES)  # 2/5 at (1/5, 1/5) only; psi_prime = 3/5
WRONG_MINIMA = [
    (MINIMUM._replace(first=(2, 2)), "minimizers == [e1p + e2p]"),  # (2/5, 2/5)
    (MINIMUM._replace(count=2), "minimizers == [e1p + e2p]"),
    (MINIMUM._replace(value=(2001, 5000)), "gamma*(1 + psi_prime*(1 - alpha)) == lam"),  # + 1/1000
]


@pytest.mark.parametrize("wrong, identity", WRONG_MINIMA)
def test_wrong_minimum_names_its_identity(wrong, identity, monkeypatch, capsys):
    with pytest.raises(VerificationFailure, match=re.escape(identity)):
        case_analysis_lattice(FIFTH, ONES, wrong)

    # classify passes its own minimum to the case analysis.
    monkeypatch.setattr(toricmld.cli, "sail_minimum", lambda lat, psi: wrong)
    code = main(["classify", "--type", "5,1,1", "--t", "1/3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"verification failure: {identity} fails for Lattice[")

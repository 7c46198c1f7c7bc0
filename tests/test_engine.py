"""Discrepancy engine: germs, mld, the scale functional, case analysis."""

import math
import random
from fractions import Fraction

import pytest

from toricmld import germ_from_quotient_type, mld, mld_argmin
from toricmld.germs import (
    CaseData,
    CaseTag,
    canonical_germ,
    case_analysis_lattice,
    gamma_max_lattice,
    gamma_of,
    germ_psi,
    make_germ,
    psi_of,
    swapped_germ,
)
from toricmld.lattices import (
    STANDARD_LATTICE,
    contains,
    dual,
    in_cone,
    is_primitive,
    lattice_from_generators,
    lattice_from_quotient_type,
    points_in_box,
    vec,
)
from toricmld.oracle import mld_oracle_lattice

from conftest import dot, fraction_case_data

FIFTH = lattice_from_quotient_type(5, 1, 1)


def _case_data(germ):
    """The germ's case analysis with rational fields (see `fraction_case_data`)."""
    return fraction_case_data(case_analysis_lattice(germ.lattice, germ_psi(germ)), germ.lattice)


def test_make_germ_validation():
    germ = make_germ(STANDARD_LATTICE, 0, 0)
    assert germ.b1 == 0 and germ.b2 == 0
    make_germ(FIFTH, Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="primitive"):
        make_germ(lattice_from_generators([(1, 0), (0, Fraction(1, 2))]), 0, 0)
    with pytest.raises(ValueError):
        make_germ(lattice_from_generators([(2, 0), (0, 1)]), 0, 0)
    with pytest.raises(ValueError):
        make_germ(lattice_from_generators([(1, 0)]), 0, 0)
    with pytest.raises(ValueError):
        make_germ(STANDARD_LATTICE, Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        make_germ(STANDARD_LATTICE, 0, -1)


def test_psi_of():
    assert psi_of(make_germ(STANDARD_LATTICE, 0, 0)) == vec(1, 1)
    assert psi_of(make_germ(STANDARD_LATTICE, 1, 1)) == vec(0, 0)
    assert psi_of(make_germ(STANDARD_LATTICE, Fraction(1, 2), Fraction(2, 3))) == vec(
        Fraction(1, 2), Fraction(1, 3)
    )


def test_swap_and_canonical_germ():
    germ = germ_from_quotient_type(5, 1, 2, Fraction(1, 2), 0)
    back = swapped_germ(swapped_germ(germ))
    assert back == germ
    canon = canonical_germ(germ)
    assert canon == canonical_germ(swapped_germ(germ))
    assert canon in (germ, swapped_germ(germ))


def test_mld_examples():
    value, argmin = mld_argmin(make_germ(STANDARD_LATTICE, 0, 0))
    assert value == 2 and argmin == [vec(1, 1)]
    assert mld(germ_from_quotient_type(3, 2, 1)) == 1
    value, argmin = mld_argmin(make_germ(FIFTH, 0, 0))
    assert value == Fraction(2, 5) and argmin == [vec(Fraction(1, 5), Fraction(1, 5))]
    assert mld(make_germ(FIFTH, 1, 1)) == 0
    # Two-element minimizing set, sorted.
    value, argmin = mld_argmin(germ_from_quotient_type(3, 2, 1, 0, 0))
    assert argmin == [vec(Fraction(1, 3), Fraction(2, 3)), vec(Fraction(2, 3), Fraction(1, 3))]


def test_mld_range_and_characterizations(random_corpus):
    for germ, _ in random_corpus[:250]:
        value = mld(germ)
        assert 0 <= value <= 2
        assert (value == 2) == (germ.lattice == STANDARD_LATTICE and germ.b1 == germ.b2 == 0)
        assert (value == 0) == (germ.b1 == germ.b2 == 1)


def test_mld_reduction_to_residues():
    # The residue minimum is the true interior minimum: scanning a box
    # beyond the residue region never finds anything smaller.
    rng = random.Random(201)
    for _ in range(40):
        r = rng.randint(1, 20)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        germ = germ_from_quotient_type(r, 1, w, Fraction(rng.randint(0, 3), 4), 0)
        psi = psi_of(germ)
        box = [
            p
            for p in points_in_box(germ.lattice, 3, 3)
            if p.x1 > 0 and p.x2 > 0
        ]
        assert mld(germ) == min(dot(psi, p) for p in box)


def test_gamma_of():
    assert gamma_of(vec(1, 1), vec(1, 1)) == 1
    assert gamma_of(vec(2, 3), vec(1, 1)) == Fraction(1, 3)
    assert gamma_of(vec(0, 2), vec(1, 1)) == Fraction(1, 2)
    assert gamma_of(vec(0, 0), vec(1, 1)) is None
    assert gamma_of(vec(1, 0), vec(0, 1)) == 0
    with pytest.raises(ValueError):
        gamma_of(vec(-1, 1), vec(1, 1))


def _gamma_max(germ):
    """The best single covector bound of the germ: (value, least maximizer)."""
    return gamma_max_lattice(dual(germ.lattice), psi_of(germ), mld(germ))


def test_gamma_max_examples():
    assert _gamma_max(make_germ(STANDARD_LATTICE, 0, 0)) == (Fraction(1), vec(0, 1))
    assert _gamma_max(make_germ(FIFTH, 0, 0)) == (Fraction(1, 3), vec(2, 3))
    assert _gamma_max(germ_from_quotient_type(3, 2, 1)) == (Fraction(1), vec(1, 1))
    with pytest.raises(ValueError):
        _gamma_max(make_germ(STANDARD_LATTICE, 1, 1))


def test_gamma_max_is_a_maximum():
    # No covector in the search box beats the reported scale.
    rng = random.Random(202)
    for _ in range(30):
        r = rng.randint(1, 15)
        w = rng.choice([u for u in range(1, r + 1) if math.gcd(u, r) == 1])
        germ = germ_from_quotient_type(r, 1, w, Fraction(rng.randint(0, 2), 3), 0)
        psi = psi_of(germ)
        lam = mld(germ)
        gamma, v1 = gamma_max_lattice(dual(germ.lattice), psi, lam)
        assert gamma_of(v1, psi) == gamma
        m_lat = dual(germ.lattice)
        assert contains(m_lat, v1)
        for m in points_in_box(m_lat, 2 * psi.x1 / lam, 2 * psi.x2 / lam):
            if m.is_zero():
                continue
            value = gamma_of(m, psi)
            assert value <= gamma
            if value == gamma:
                assert v1 <= m


def test_case_analysis_worked_thread():
    # In integers: ratios reduced, covectors integral, points over D = 5.
    assert case_analysis_lattice(FIFTH, (1, 1, 1)) == CaseData(
        CaseTag.SPLIT, (1, 3), (2, 3), (2, 5), (-2, 3), (3, -2), (2, 3), (3, 2), (3, 5), (3, 2),
        (1, 15), 3, (3, 2),
    )
    data = _case_data(make_germ(FIFTH, 0, 0))
    assert data.tag is CaseTag.SPLIT
    assert data.gamma == Fraction(1, 3)
    assert data.v1 == vec(2, 3)
    assert data.e2p == vec(Fraction(3, 5), Fraction(-2, 5))
    assert data.e1p == vec(Fraction(-2, 5), Fraction(3, 5))
    assert data.alpha == Fraction(2, 3)
    assert data.beta == Fraction(3, 2)
    assert data.psi_prime == Fraction(3, 5)
    assert data.mld == Fraction(2, 5)
    assert data.v2 == vec(3, 2)
    assert data.q_min == 3
    assert data.lambda_prime == Fraction(1, 15)
    assert data.c == 1 + Fraction(3, 5) * (Fraction(3, 2) - Fraction(2, 3))


def test_case_analysis_smooth():
    data = _case_data(make_germ(STANDARD_LATTICE, 0, 0))
    assert data.tag is CaseTag.SPLIT
    assert (data.gamma, data.v1) == (Fraction(1), vec(0, 1))
    assert data.e2p == vec(1, 0) and data.e1p == vec(0, 1)
    assert data.alpha == 0 and data.beta is None and data.c is None
    assert data.psi_prime == 1
    assert data.mld == 2
    assert data.v2 == vec(1, 0)


def test_case_analysis_chain_quotient():
    data = _case_data(germ_from_quotient_type(3, 2, 1))
    assert data.tag is CaseTag.SPLIT
    assert (data.gamma, data.v1, data.mld) == (Fraction(1), vec(1, 1), Fraction(1))
    assert data.psi_prime == 0
    assert data.e2p == vec(Fraction(1, 3), Fraction(-1, 3))
    assert data.e1p == vec(0, 1)
    assert data.alpha == 0 and data.beta == 3
    assert data.lambda_prime == 0


def test_case_analysis_diagonal_half():
    # Kernel component zero yet the minimizer is still unique: the
    # uniqueness implication only runs forward.
    germ = germ_from_quotient_type(2, 1, 1)
    data = _case_data(germ)
    assert data.tag is CaseTag.SPLIT
    assert (data.gamma, data.v1, data.mld) == (Fraction(1), vec(1, 1), Fraction(1))
    assert data.psi_prime == 0
    assert data.beta == 2
    _, argmin = mld_argmin(germ)
    assert argmin == [vec(Fraction(1, 2), Fraction(1, 2))]


def test_case_analysis_boundary_psi():
    data = _case_data(make_germ(STANDARD_LATTICE, 0, 1))
    assert data.tag is CaseTag.BOUNDARY_PSI
    assert (data.gamma, data.v1, data.mld) == (Fraction(1), vec(1, 0), Fraction(1))
    assert data.e1p is None and data.v2 is None
    data = _case_data(make_germ(FIFTH, 1, Fraction(1, 2)))
    assert data.tag is CaseTag.BOUNDARY_PSI
    assert data.v1.scaled(data.gamma) == psi_of(make_germ(FIFTH, 1, Fraction(1, 2)))


def test_case_analysis_rejections():
    with pytest.raises(ValueError):
        case_analysis_lattice(STANDARD_LATTICE, (1, 0, 0))  # zero psi, boundary (1, 1)
    with pytest.raises(ValueError):
        case_analysis_lattice(STANDARD_LATTICE, (1, -1, 1))


def _check_slice_direction(data, psi):
    # All t at or below the minimum push psi onto the dual boundary
    # through the adapted covector pair.
    rng = random.Random(hash((psi.x1, psi.x2)) & 0xFFFF)
    for _ in range(5):
        t = data.mld * Fraction(rng.randint(0, 8), 8)
        s = (t - data.gamma) / (1 - data.alpha)
        combo = data.v1.scaled(t - s) + data.v2.scaled(s)
        resid = psi - combo
        assert in_cone(resid)
        assert resid.x1 == 0 or resid.x2 == 0
        scale = (data.mld - t) / (1 - data.alpha)
        assert resid == (data.v2 - data.v1.scaled(data.alpha)).scaled(scale)


def test_case_analysis_properties(random_corpus):
    for germ, _ in random_corpus[:150]:
        psi = psi_of(germ)
        if psi.is_zero():
            continue
        data = _case_data(germ)
        assert data.gamma <= data.mld <= 2 * data.gamma
        assert data.mld == mld(germ) == mld_oracle_lattice(germ.lattice, psi)[0]
        m_lat = dual(germ.lattice)
        assert contains(m_lat, data.v1) and is_primitive(m_lat, data.v1)
        if data.tag is CaseTag.BOUNDARY_PSI:
            assert data.v1.scaled(data.gamma) == psi
            continue
        assert data.tag is CaseTag.SPLIT
        assert dot(data.v1, data.e1p) == 1 and dot(data.v1, data.e2p) == 0
        assert dot(data.v2, data.e1p) == 0 and dot(data.v2, data.e2p) == 1
        assert 0 <= data.alpha < 1
        assert data.mld == data.gamma + data.gamma * data.psi_prime * (1 - data.alpha)
        assert data.lambda_prime == data.gamma * data.psi_prime / data.q_min
        if data.psi_prime > 0:
            _, argmin = mld_oracle_lattice(germ.lattice, psi)
            assert argmin == [data.e1p + data.e2p]
        _check_slice_direction(data, psi)

"""Derived constructions on top of the case analysis.

Invariant hyperplane sections, each given by its covector (a `Vec2` of
the dual lattice inside the dual quadrant), the threshold up to which
a section can be added to the boundary, the one-or-two-section
dichotomy realizing the discrepancy minimum, which is the `CaseA` or
`CaseB` certificate at t = mld, and periodic complement boundaries
with controlled level. Nothing here runs the brute-force oracle: the
complement checker `verify_complement` proves the value at the
complement with a threshold certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .certify import (
    CaseA,
    CaseB,
    NotTLC,
    Verification,
    certificate_from_case_data,
    classify_tlc_lattice,
    pair_weights,
)
from .germs import (
    Germ,
    best_covector_lattice,
    case_analysis_lattice,
    gamma_max_lattice,
    gamma_of,
    germ_psi,
    make_germ,
    mld,
    mld_lattice,
    psi_of,
    sail_minimum,
)
from .lattices import (
    Rational,
    STANDARD_LATTICE,
    Vec2,
    _checker,
    contains,
    cyclic_type,
    dual,
    in_cone,
    klein_sail,
    simplex_ratio,
    vec,
)


def hyperplane_section(germ: Germ, m: Vec2) -> Vec2:
    """The section covector m, validated: nonzero, in the dual lattice and quadrant."""
    if m.is_zero():
        raise ValueError("a section needs a nonzero covector")
    if not in_cone(m):
        raise ValueError("section covector outside the dual quadrant")
    if not contains(dual(germ.lattice), m):
        raise ValueError("section covector does not pair integrally with the lattice")
    return m


def lct_invariant(germ: Germ, m: Vec2) -> Rational:
    """Largest c with the boundary plus c times the section m still at most one.

    Componentwise binding constraint, so this is exactly the largest
    scale of the section covector under psi.
    """
    value = gamma_of(m, psi_of(germ))
    check = _checker(germ.lattice, germ_psi(germ))
    check(value is not None, "a nonzero section has a finite scale")
    return value


class ProductCase(NamedTuple):
    """Standard lattice with light boundary; the value is 2 - b1 - b2."""

    a: Rational


class QuotientCase(NamedTuple):
    """Boundary-free chain quotient of order l + 1; the value is 1."""

    l: int


class NotApplicable(NamedTuple):
    """The germ's value is below one."""


def classify_mld_ge_one(germ: Germ) -> Union[ProductCase, QuotientCase, NotApplicable]:
    """Match a germ of value at least one to its family.

    The two families are exhaustive for valid germs; reaching the end
    with value >= 1 is a theorem violation, reported as such. Invalid
    germs (imprimitive unit points) are rejected up front.
    """
    make_germ(germ.lattice, germ.b1, germ.b2)  # reject relaxed germs
    a = mld(germ)
    if a < 1:
        return NotApplicable()
    check = _checker(germ.lattice, germ_psi(germ))
    if germ.lattice == STANDARD_LATTICE:
        check(
            a == 2 - germ.b1 - germ.b2 and germ.b1 + germ.b2 <= 1,
            "mld == 2 - b1 - b2 and b1 + b2 <= 1",
        )
        return ProductCase(a)
    ty = cyclic_type(germ.lattice) if germ.b1 == 0 and germ.b2 == 0 else None
    check(
        ty is not None and ty[1] == 1 and ty[2] == ty[0] - 1,
        "mld >= 1 only on the product or a boundary-free 1/r(1, r-1)",
    )
    check(a == 1, "mld of 1/r(1, r-1) == 1")
    return QuotientCase(ty[0] - 1)


def hyperplane_dichotomy(germ: Germ) -> Union[CaseA, CaseB]:
    """Realize the discrepancy minimum through one or two sections.

    The result is the certificate at t = mld, `classify_tlc(germ,
    mld(germ))`, with integral covectors (s, x, y) = (1, x, y). CaseA
    when the best covector scale reaches the minimum: then psi = mld*m,
    checked here, and adding the scaled section exhausts the boundary.
    Otherwise CaseB: the adapted pair with exact weights t1 + t2 = mld
    and t1*m1 + t2*m2 = psi. Case a needs no oracle: psi - mld*m is
    zero, and a zero psi has value 0.
    """
    psi = germ_psi(germ)
    data = case_analysis_lattice(germ.lattice, psi)
    cert = certificate_from_case_data(germ.lattice, data, psi, data.mld)
    if isinstance(cert, CaseA):
        # gamma == mld here, so psi = mld * m and the pushed boundary is the full one.
        (s, c1, c2), (ln, ld), (ms, mx, my) = psi, data.mld, cert.m
        _checker(germ.lattice, psi)(
            c1 * ld * ms == s * ln * mx and c2 * ld * ms == s * ln * my, "psi == mld*v1"
        )
    return cert


def half_mld_section(germ: Germ) -> Vec2:
    """A section covector that can absorb half the discrepancy minimum.

    From the dichotomy: the case-a covector, or the heavier of the pair
    (ties broken toward the lexicographically least covector). The
    half-scaled section keeps the boundary at or below the full one, with
    no oracle: psi - (mld/2)*m is checked to lie in the closed dual
    quadrant, so it pairs to >= 0 with every open-quadrant point.
    """
    cert = hyperplane_dichotomy(germ)
    if isinstance(cert, CaseA):
        m = cert.m
    else:
        # Least key: the larger weight t_i = n_i/d_i, then the least covector.
        (n1, d1), (n2, d2) = cert.t1, cert.t2
        m = min((-n1 * d2, cert.m1), (-n2 * d1, cert.m2))[1]
    _, x, y = m  # the engine's covectors are integral
    section = vec(x, y)
    check = _checker(germ.lattice, germ_psi(germ))
    pushed = psi_of(germ) - section.scaled(mld(germ) / 2)
    check(in_cone(pushed), "psi - (mld/2)*m lies in the dual quadrant")
    return section


class Complement(NamedTuple):
    """Periodic boundary of level n with its principality witness."""

    n: int
    boundary: tuple[Rational, Rational]
    witness_m: Vec2


def is_standard_coefficient(b: Rational) -> bool:
    """True for 0, 1, and the tower (m-1)/m with m a positive integer."""
    b = Fraction(b)
    return b == 1 or (0 <= b < 1 and (1 / (1 - b)).denominator == 1)


def complement_standard(germ: Germ, p: int, q: int) -> Complement:
    """Level-controlled complement for standard boundary coefficients.

    Requires the germ's value to reach p/q. When the best covector scale
    already reaches p/q, level q works directly, and the case analysis
    stops at the covector (`best_covector_lattice`). Otherwise its split
    gives the adapted pair, which is recombined with integer weights;
    standardness of the coefficients makes the needed quantities
    integral, and the level is q*s with s at most 2q/p. The ratio p/q is
    reduced before any use, so the level bound holds for the reduced q.
    The result passes `verify_complement` at target p/q. Every step, the
    check included, walks Klein sails: O(log index).
    """
    t = simplex_ratio(p, q)
    p, q = t.numerator, t.denominator
    if not (is_standard_coefficient(germ.b1) and is_standard_coefficient(germ.b2)):
        raise ValueError("boundary coefficients must be standard")
    psi = germ_psi(germ)
    minimum = sail_minimum(germ.lattice, psi)
    vn, vd = minimum.value
    if vn * q < p * vd:
        raise ValueError("the germ's value is below the target ratio")
    covector = best_covector_lattice(germ.lattice, psi, minimum)
    check = _checker(germ.lattice, psi)

    (gn, gd), (v1x, v1y) = covector
    if gn * q >= p * gd:
        n, s = q, 1
        wx, wy = p * v1x, p * v1y
    else:
        data = case_analysis_lattice(germ.lattice, psi, minimum, covector)
        k1, k2 = pair_weights(germ.lattice, data, p, q)
        s, rest = divmod(k1 + k2, p)
        check(rest == 0, "k1 + k2 == p*s")
        n = s * q
        (v2x, v2y) = data.v2
        wx, wy = k1 * v1x + k2 * v2x, k1 * v1y + k2 * v2y
    check(1 <= s and s * p <= 2 * q, "1 <= s <= 2q/p")
    comp = Complement(n, (Fraction(n - wx, n), Fraction(n - wy, n)), vec(wx, wy))
    outcome = verify_complement(germ, comp, t)
    check(outcome.ok, f"verify_complement ({outcome.reason})")
    return comp


def bounded_complement(germ: Germ) -> Complement:
    """Complement of least level; the level is at most ceil(2/a) for the value a.

    At the least level n whose box 0 <= m <= n*psi holds a nonzero dual
    covector m, returns the lexicographically first such m, with
    boundary b' = 1 - m/n. The result passes `verify_complement`. The
    cost is one walk of the dual's Klein sail, which the dual keeps for
    both uses, O(log index).

    The level: a nonzero quadrant covector m lies in the box exactly
    when its scale gamma(m) = min psi_i/m_i over m_i > 0 is at least
    1/n, since psi_i = 0 forces m_i = 0. So the least level is
    ceil(1/gamma_max), and `gamma_max_lattice` checks gamma_max >= a/2,
    which gives n <= ceil(2/a).

    The covector: the first m has the least m_1 in the box and the
    least m_2 in its column. A nonzero quadrant point below it would lie
    in the box and come first, so m is Pareto-minimal in the quadrant
    and lies on the Klein sail of the dual. Along the sail m_1 rises and
    m_2 falls, so the first sail point with m_2 <= n*psi_2 has m_1 at
    most that of m, and it lies in the box; distinct sail points have
    distinct m_1, so it is m. On its edge one floor division finds it.

    The covector needs no oracle: m is a nonzero integral dual
    covector in the closed quadrant (the dual of a superlattice of the
    integer plane lies in it), so it pairs to a positive integer with
    every open-quadrant lattice point, and the value at psi' = m/n is
    at least 1/n. The rounding bound on b' follows (see
    `verify_complement`).
    """
    psi = psi_of(germ)
    a = mld_lattice(germ.lattice, psi)
    if a == 0:
        raise ValueError("bounded complements need a positive value")
    m_lat = dual(germ.lattice)
    gamma, _ = gamma_max_lattice(m_lat, psi, a)
    n = math.ceil(1 / gamma)
    scaled = germ_psi(germ)
    check = _checker(germ.lattice, scaled)
    n_max = math.ceil(2 / a)
    check(n <= n_max, f"a complement of level <= {n_max} exists")
    # First sail point with y/D <= n*c2/s, that is y*s <= n*c2*D.
    s, _, c2 = scaled
    sail = klein_sail(m_lat)
    bound = n * c2 * sail.denominator
    edge = next(e for e in sail.edges if (e.y + e.length * e.dy) * s <= bound)
    t = max(0, -((bound - edge.y * s) // (-edge.dy * s)))
    m = Vec2(
        Fraction(edge.x + t * edge.dx, sail.denominator),
        Fraction(edge.y + t * edge.dy, sail.denominator),
    )
    found = Complement(n, (1 - m.x1 / n, 1 - m.x2 / n), m)
    outcome = verify_complement(germ, found, None)
    check(outcome.ok, f"verify_complement ({outcome.reason})")
    return found


def verify_complement(germ: Germ, comp: Complement, target: Optional[Rational]) -> Verification:
    """Re-check a complement from the germ and the complement only.

    n >= 1; the witness is n*(1 - b'), integral and in the dual; b <= b'
    <= 1; the value at psi' = witness/n reaches the target, or is
    positive when it is None (bounded). No step walks the quotient.

    The rounding bound b' >= floor(b) + floor((n+1)*frac(b))/n needs no
    check of its own: with w = floor(b), n*(b' - w) is an integer, as
    n*b' = n - witness_i, and at least n*frac(b), as b' >= b; so it is
    at least ceil(n*frac(b)) >= floor(n*frac(b) + frac(b)), the last
    step because frac(b) < 1.

    The value step. The checks above make the witness an integral dual
    covector in the closed quadrant. A zero one has value 0. A nonzero
    one pairs with every open-quadrant lattice point to a positive
    integer, so the value at psi' is at least 1/n, which settles the
    bounded case. With a target, `classify_tlc_lattice` gives the
    threshold certificate at psi', which has passed
    `verify_certificate_lattice`: a CaseA or CaseB proves the value
    reaches the target, a NotTLC point pairs below it.
    """
    n, (c1, c2), witness = comp
    if n < 1:
        return Verification(False, "level must be positive")
    if witness != Vec2(n * (1 - c1), n * (1 - c2)):
        return Verification(False, "witness does not match the scaled boundary complement")
    if witness.x1.denominator != 1 or witness.x2.denominator != 1:
        return Verification(False, "witness is not integral")
    if not contains(dual(germ.lattice), witness):
        return Verification(False, "witness does not pair integrally with the lattice")
    if not (germ.b1 <= c1 <= 1 and germ.b2 <= c2 <= 1):
        return Verification(False, "boundary out of range")
    if witness.is_zero():
        return Verification(False, "witness is zero, so the value at witness/n is zero")
    psi = Vec2(witness.x1 / n, witness.x2 / n)
    if target is not None and isinstance(classify_tlc_lattice(germ.lattice, psi, target), NotTLC):
        return Verification(False, "value at witness/n is below the target ratio")
    return Verification(True, "complement holds")

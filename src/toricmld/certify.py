"""Threshold certificates: classification, verification, enumeration.

A threshold certificate proves one side of the question "does the
subgroup meet the open region of discrepancy below t". The positive
side is witnessed by covectors (one covector whose scaled copy stays
under psi, or a weighted pair that decomposes psi exactly); the
negative side by an explicit interior point pairing below t. Verifiers
here recompute everything from raw pairings and membership tests, so
they share no conclusions with the classifier.

Certificates hold integers: each covector or point is a `Scaled` triple
(s, x, y) standing for (x, y)/s, and each weight or value a `Ratio`
(num, den). The engine's are reduced, and its covectors integral
(s = 1). A sweep does each piece of work once at the level it depends
on: the threshold once per sweep, psi once per boundary pair, the Klein
sails and the series list once per lattice (`_LatticeWork`), and only
the minimum, the certificate and its check per germ.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import VerificationFailure
from .germs import (
    CaseData,
    CaseTag,
    Germ,
    Minimum,
    boundary_pair,
    case_analysis_lattice,
    germ_psi,
    psi_of,
    sail_minimum,
    scaled_psi,
)
from .lattices import (
    Lattice,
    Ratio,
    Rational,
    Sail,
    Scaled,
    Vec2,
    _checker,
    _coordinates,
    _exact,
    _lattice_from_rows,
    _scaled_covector,
    basis_order,
    contains,
    dual,
    format_rational,
    in_cone,
    index,
    klein_sail,
    lattice_from_generators,
    positive_threshold,
    reduced,
    simplex_ratio,
    superlattices,
    swapped_lattice,
    vec,
)


class CaseA(NamedTuple):
    """Single covector witness: psi - t*m stays in the dual quadrant. m is (s, x, y)."""

    m: Scaled


class CaseB(NamedTuple):
    """Weighted pair witness: t1*m1 + t2*m2 = psi with t1 + t2 >= t.

    m1 and m2 are (s, x, y) triples, t1 and t2 (num, den) pairs.
    """

    m1: Scaled
    m2: Scaled
    t1: Ratio
    t2: Ratio


class NotTLC(NamedTuple):
    """Interior subgroup point whose pairing with psi is below t.

    e is (s, x, y) and value (num, den).
    """

    e: Scaled
    value: Ratio


Certificate = Union[CaseA, CaseB, NotTLC]


class Verification(NamedTuple):
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def classify_tlc_lattice(lat: Lattice, psi: Vec2, t: Rational) -> Certificate:
    """Certificate at t for a full-rank superlattice of the integer plane (see `_certificate`)."""
    t = positive_threshold(Fraction(t))
    if psi.is_zero():
        raise ValueError("threshold classification needs a nonzero psi")
    scaled = _scaled_covector(psi)
    ratio = (t.numerator, t.denominator)
    return _certificate(_LatticeWork(lat), ratio, scaled, sail_minimum(lat, scaled))


def certificate_from_case_data(lat: Lattice, data: CaseData, psi: Scaled, t: Ratio) -> Certificate:
    """Covector certificate for t <= data.mld; at t = data.mld, the section dichotomy.

    psi = (c1, c2)/s and t = tn/td. The weights of a pair are
    t2 = (mld - gamma)/(1 - alpha) and t1 = mld - t2, computed over
    their common denominator and then reduced.
    """
    tn, td = t
    (gn, gd), (vx, vy) = data.gamma, data.v1
    if gn * td >= tn * gd:
        return CaseA((1, vx, vy))
    # gamma < t <= lam only happens in the split case with positive
    # kernel component; the exact decomposition of psi gives the pair.
    check = _checker(lat, psi)
    check(data.tag is CaseTag.SPLIT and data.psi_prime[0] > 0, "split case with psi_prime > 0")
    (ln, ld), (an, ad), (wx, wy) = data.mld, data.alpha, data.v2
    den = ld * gd * (ad - an)
    t2 = (ln * gd - gn * ld) * ad
    t1 = ln * gd * (ad - an) - t2
    check(t1 > 0 and t2 > 0, "t1 > 0 and t2 > 0")
    s, c1, c2 = psi
    check(
        (t1 * vx + t2 * wx) * s == c1 * den and (t1 * vy + t2 * wy) * s == c2 * den,
        "t1*v1 + t2*v2 == psi",
    )
    return CaseB((1, vx, vy), (1, wx, wy), reduced(t1, den), reduced(t2, den))


def classify_tlc(germ: Germ, t: Rational) -> Certificate:
    """Certificate for a germ at threshold t; rejects zero psi."""
    return classify_tlc_lattice(germ.lattice, psi_of(germ), t)


def verify_certificate_lattice(
    lat: Lattice, psi: Vec2, t: Rational, cert: Certificate
) -> Verification:
    """Re-check a certificate from its definition only (see `verify_certificate_scaled`)."""
    t = _exact(t)
    return verify_certificate_scaled(lat, _scaled_covector(psi), (t.numerator, t.denominator), cert)


def verify_certificate_scaled(
    lat: Lattice, psi: tuple[int, int, int], t: tuple[int, int], cert: Certificate
) -> Verification:
    """`verify_certificate_lattice` at psi = (c1, c2)/s and t = tn/td, with s, td > 0.

    Raw pairings and membership tests; nothing is taken from the
    classifier, so a classifier bug cannot vouch for itself. The checks
    run in integers: the basis is ((a, b), (0, d))/D from `lat.hnf`,
    each covector or point is the certificate's (s, x, y) and each
    weight or value its (num, den), with s, den > 0 and neither needing
    to be reduced; a pairing is integral when the scale divides it, and
    rationals are compared by cross-multiplying, so no rational is built.
    """
    ps, c1, c2 = psi
    tn, td = t
    if tn <= 0:
        return Verification(False, "threshold must be positive")
    denom, a, b, d = lat.hnf
    if isinstance(cert, CaseA):
        s, m1, m2 = cert.m
        if m1 == 0 and m2 == 0:
            return Verification(False, "witness covector is zero")
        if m1 < 0 or m2 < 0:
            return Verification(False, "witness covector outside the dual quadrant")
        # The pairings with the rows (a, b)/D and (0, d)/D.
        if (m1 * a + m2 * b) % (s * denom) or (m2 * d) % (s * denom):
            return Verification(False, "witness pairs non-integrally with the subgroup")
        # psi - t*m in the quadrant: c_i/ps >= (tn/td)*(m_i/s) for each i.
        if c1 * td * s < tn * m1 * ps or c2 * td * s < tn * m2 * ps:
            return Verification(False, "threshold multiple of the witness overshoots psi")
        return Verification(True, "single-witness certificate holds")
    if isinstance(cert, CaseB):
        (s1, x1, y1), (s2, x2, y2) = cert.m1, cert.m2
        if min(x1, y1, x2, y2) < 0:
            return Verification(False, "pair covectors outside the dual quadrant")
        if x1 * y2 - y1 * x2 == 0:
            return Verification(False, "pair covectors are linearly dependent")
        (n1, d1), (n2, d2) = cert.t1, cert.t2
        if not (n1 > 0 and n2 > 0):
            return Verification(False, "pair weights must be positive")
        if (n1 * d2 + n2 * d1) * td < tn * d1 * d2:
            return Verification(False, "pair weights sum below the threshold")
        # t1*m1 + t2*m2 over the common denominator d1*d2*s1*s2, against psi.
        w1, w2, scale = n1 * d2 * s2, n2 * d1 * s1, d1 * d2 * s1 * s2
        if (w1 * x1 + w2 * x2) * ps != c1 * scale or (w1 * y1 + w2 * y2) * ps != c2 * scale:
            return Verification(False, "weighted pair does not decompose psi")
        common = math.lcm(s1, s2)
        u1, u2 = common // s1, common // s2
        span = _lattice_from_rows([(x1 * u1, y1 * u1), (x2 * u2, y2 * u2)], common)
        if dual(span).hnf != lat.hnf:
            return Verification(False, "subgroup differs from the pair's joint integrality locus")
        return Verification(True, "dual-pair certificate holds")
    if isinstance(cert, NotTLC):
        s, e1, e2 = cert.e
        if _coordinates(lat, s, e1, e2) is None:
            return Verification(False, "violating point lies outside the subgroup")
        if not (e1 > 0 and e2 > 0):
            return Verification(False, "violating point is not interior to the quadrant")
        vn, vd = cert.value
        # psi . e = (c1*e1 + c2*e2)/(ps*s), against value.
        if (c1 * e1 + c2 * e2) * vd != vn * ps * s:
            return Verification(False, "recorded pairing value is wrong")
        if vn * td >= tn * vd:
            return Verification(False, "recorded value does not beat the threshold")
        return Verification(True, "violating point confirmed")
    return Verification(False, "unrecognized certificate")


def verify_certificate(germ: Germ, t: Rational, cert: Certificate) -> Verification:
    return verify_certificate_lattice(germ.lattice, psi_of(germ), t, cert)


def box_maximal(m: Vec2, bound: Rational) -> Vec2:
    """Largest integer multiple of m inside the box [0, bound]^2."""
    if not in_cone(m) or m.is_zero():
        raise ValueError("needs a nonzero covector in the closed dual quadrant")
    k = min(math.floor(bound / mi) for mi in (m.x1, m.x2) if mi > 0)
    if k < 1:
        raise VerificationFailure(
            f"box-maximal multiple >= 1 fails for ({format_rational(m.x1)},"
            f"{format_rational(m.x2)}) in [0, {format_rational(bound)}]^2"
        )
    return m.scaled(Fraction(k))


class Contained(NamedTuple):
    """The subgroup pairs integrally with m, whose multiple fills the box."""

    m: Vec2


class EqualsIntersection(NamedTuple):
    """The subgroup is exactly the joint integrality locus of a pair."""

    m1: Vec2
    m2: Vec2
    k1: int
    k2: int


class Hit(NamedTuple):
    """Interior subgroup point inside the open simplex."""

    e: Vec2


LawrenceResult = Union[Contained, EqualsIntersection, Hit]


def pair_weights(lat: Lattice, data: CaseData, p: int, q: int) -> tuple[int, int]:
    """Integer weights k1 = q - p*alpha/gamma, k2 = p/gamma - q of the pair at p/q.

    For gamma < p/q <= mld; both quotients by gamma are integers, both
    weights at least 1, and k1 + k2 = p*(1 - alpha)/gamma.
    """
    check = _checker(lat)
    (gn, gd), (an, ad) = data.gamma, data.alpha
    scale, rest = divmod(gd, gn)
    check(rest == 0, "1/gamma is an integer")
    offset, rest = divmod(an * gd, ad * gn)
    check(rest == 0, "alpha/gamma is an integer")
    k1 = q - p * offset
    k2 = scale * p - q
    check(k1 >= 1 and k2 >= 1, "k1 >= 1 and k2 >= 1")
    return k1, k2


def lawrence(lat: Lattice, p: int, q: int) -> LawrenceResult:
    """Decide whether the subgroup avoids the open simplex x+y < p/q, x,y > 0.

    Avoidance is certified either by a single integer covector (the
    subgroup is contained in its integrality locus, with the box-maximal
    multiple reported) or by an exact presentation of the subgroup as a
    joint integrality locus with small weights. The ratio p/q is reduced
    before any use; the result passes `verify_lawrence_result`.
    """
    t = simplex_ratio(p, q)
    index(lat)  # raises ValueError unless the lattice contains the integer plane
    p, q = t.numerator, t.denominator
    psi = (1, 1, 1)

    minimum = sail_minimum(lat, psi)
    (vn, vd), denom = minimum.value, lat.hnf[0]
    if vn * q < p * vd:
        x, y = minimum.first
        result: LawrenceResult = Hit(vec(Fraction(x, denom), Fraction(y, denom)))
    else:
        data = case_analysis_lattice(lat, psi, minimum)
        gn, gd = data.gamma
        if gn * q >= p * gd:
            result = Contained(box_maximal(vec(*data.v1), 1 / t))
        else:
            k1, k2 = pair_weights(lat, data, p, q)
            if p == 1 and q > 1 and k1 + k2 == 2 * q:
                # Saturated weights only happen with offset 0 and scale 2q,
                # where the plain average of the pair already lands in the box.
                k1 = k2 = 1
            result = EqualsIntersection(vec(*data.v1), vec(*data.v2), k1, k2)
    outcome = verify_lawrence_result(lat, p, q, result)
    _checker(lat)(outcome.ok, f"verify_lawrence_result ({outcome.reason})")
    return result


def verify_lawrence_result(lat: Lattice, p: int, q: int, result: LawrenceResult) -> Verification:
    """Re-check a simplex-avoidance result from the lattice and the result only.

    At psi = (1, 1) and t = p/q, a hit is `NotTLC(e, e.x1 + e.x2)` and a
    containment an integral `CaseA(m)` for `verify_certificate_scaled`.
    A pair needs k1, k2 >= 1, k1 + k2 <= 2q (q reduced), independent
    covectors in the closed dual quadrant whose joint integrality locus
    is the lattice, and a weighted average in [0, q/p]^2. Then the pair
    proves avoidance: at a lattice point e of the open simplex, m1.e and
    m2.e are positive integers, so the weighted average pairs to at
    least 1 with e, while the box bound gives less than (q/p)(p/q) = 1.
    """
    t = simplex_ratio(p, q)
    psi, ratio = (1, 1, 1), (t.numerator, t.denominator)
    if isinstance(result, Hit):
        value = result.e.x1 + result.e.x2
        hit = NotTLC(_scaled_covector(result.e), (value.numerator, value.denominator))
        return verify_certificate_scaled(lat, psi, ratio, hit)
    if isinstance(result, Contained):
        if result.m.x1.denominator != 1 or result.m.x2.denominator != 1:
            return Verification(False, "containment witness is not integral")
        return verify_certificate_scaled(lat, psi, ratio, CaseA(_scaled_covector(result.m)))
    if not isinstance(result, EqualsIntersection):
        return Verification(False, "unrecognized simplex-avoidance result")
    m1, m2, k1, k2 = result
    if k1 < 1 or k2 < 1:
        return Verification(False, "weights must be positive")
    if k1 + k2 > 2 * t.denominator:
        return Verification(False, "weights exceed twice the denominator")
    if min(m1.x1, m1.x2, m2.x1, m2.x2) < 0:
        return Verification(False, "pair covectors outside the dual quadrant")
    if m1.x1 * m2.x2 - m1.x2 * m2.x1 == 0:
        return Verification(False, "pair covectors are dependent")
    if dual(lattice_from_generators([m1, m2])) != lat:
        return Verification(False, "subgroup is not the pair's integrality locus")
    avg = (m1.scaled(Fraction(k1)) + m2.scaled(Fraction(k2))).scaled(Fraction(1, k1 + k2))
    if not (0 <= avg.x1 <= 1 / t and 0 <= avg.x2 <= 1 / t):
        return Verification(False, "weighted average escapes the box")
    return Verification(True, "pair presents the subgroup")


# Most covectors a series membership list may hold; a threshold that could give
# more is refused.
SERIES_LIMIT = 100_000


def _check_series_size(t: Rational, bound: int, j_step: int, i_step: int) -> None:
    """ValueError unless rows j_step apart, entries i_step apart, fit under SERIES_LIMIT.

    Rows j = 0, j_step, ... <= bound each hold at most bound // i_step + 1
    covectors, row 0 one fewer as zero is excluded, so the list has at
    most `count` entries.
    """
    count = (bound // j_step + 1) * (bound // i_step + 1) - 1
    if count > SERIES_LIMIT:
        raise ValueError(
            f"series membership at t = {format_rational(t)} may list up to {count} covectors,"
            f" above the limit of {SERIES_LIMIT}"
        )


def series_membership_lattice(lat: Lattice, t: Rational) -> list[tuple[int, int]]:
    """Integer covectors in [0, floor(1/t)]^2 pairing integrally with lat.

    The zero covector is excluded; each surviving covector identifies
    one series relation. Depends on the lattice only, never on the
    boundary, and is sorted lexicographically.

    Computed in integers, row by row: with the basis ((a, b), (0, d))
    scaled by its common denominator D, the covector (i, j) pairs
    integrally iff D divides j*d and i*a + j*b. The first fixes the rows
    j to the multiples of q = D/gcd(d, D); in such a row j = q*m, with
    g = gcd(a, D), the second has a solution iff g divides q*m*b, that
    is iff g/gcd(g, q*b) divides m, and then fixes i to one residue
    class mod D/g. So only rows j_step = q*g/gcd(g, q*b) apart are
    walked, and no dual lattice and no rationals are built.

    Raises ValueError, before the walk, when the list could hold more
    than SERIES_LIMIT covectors. The walk then stops after O(limit)
    rows: it visits bound // j_step + 1 rows, and the count bound of
    `_check_series_size` is that number times bound // (D/g) + 1 >= 1,
    less one, so at most SERIES_LIMIT + 1 rows, and each row costs
    O(1) plus its entries.
    """
    t = positive_threshold(_exact(t))
    bound = t.denominator // t.numerator  # floor(1/t)
    denom, a, b, d = lat.hnf
    g = math.gcd(a, denom)
    i_step = denom // g
    q = denom // math.gcd(d, denom)
    j_step = q * g // math.gcd(g, q * b)
    _check_series_size(t, bound, j_step, i_step)
    inverse = pow(a // g, -1, i_step)
    out: list[tuple[int, int]] = []
    for j in range(0, bound + 1, j_step):
        # Row 0 starts past the zero covector, which is excluded.
        i = -(j * b // g) * inverse % i_step if j else i_step
        while i <= bound:
            out.append((i, j))
            i += i_step
    out.sort()
    return out


def series_certificate_log(
    germ: Germ, m: Vec2, t: Rational
) -> Optional[tuple[int, tuple[Rational, Rational]]]:
    """Periodic boundary certificate induced by a series covector.

    The level n is minimal with n*(1 - b_i) >= m_i; the induced
    boundary is 1 - m/n componentwise. Accepted when n fits under 1/t
    directly, or at the rounded level when the induced boundary clears
    the interpolation between the full boundary and the given one.
    Returns None when no level works. The accepted boundary keeps
    discrepancies at or above 1/n without an oracle: the entry checks
    make m a nonzero, nonnegative, integral dual covector, so m.e is a
    positive integer at every open-quadrant point e of the lattice.
    """
    t = positive_threshold(Fraction(t))
    if m.is_zero() or not in_cone(m) or m.x1.denominator != 1 or m.x2.denominator != 1:
        raise ValueError("witness must be a nonzero integer covector in the dual quadrant")
    if not contains(dual(germ.lattice), m):
        raise ValueError("witness does not pair integrally with the germ lattice")
    psi = psi_of(germ)
    n = 1
    for mi, ai in ((m.x1, psi.x1), (m.x2, psi.x2)):
        if mi > 0:
            if ai == 0:
                return None
            n = max(n, math.ceil(mi / ai))
    bn = (1 - m.x1 / Fraction(n), 1 - m.x2 / Fraction(n))
    limit = 1 / t
    if n > limit:
        if n > math.ceil(limit):
            return None
        w = 1 / (n * t)
        if not (bn[0] >= (1 - w) + w * germ.b1 and bn[1] >= (1 - w) + w * germ.b2):
            return None
    return n, bn


# The integer form (D, a, b, d) of a lattice, see `Lattice.hnf`.
_Form = tuple[int, int, int, int]


class ClassifiedGerm(NamedTuple):
    """One enumeration record: germ, threshold, value, proof, series.

    `value` is the mld as a reduced (num, den) pair; `mld` is the same
    as a `Fraction`, built on each access.
    """

    germ: Germ
    t: Rational
    value: Ratio
    certificate: Certificate
    series: list[tuple[int, int]]

    @property
    def mld(self) -> Rational:
        return Fraction(*self.value)


def _cyclic_forms(r_max: int, budget: Optional[int] = None) -> Iterator[tuple[_Form, _Form, int]]:
    """(form, swap form, order) for each cyclic lattice 1/r(1, w), r <= r_max.

    The form of 1/r(1, w) is the integer basis (r, 1, w, r) of
    ((1/r, w/r), (0, 1)), already canonical. Its swap is 1/r(w, 1), that
    is 1/r(1, w') with w' the inverse of w mod r, so one modular inverse
    gives it. Both share the denominator r, so `order`, the sign of
    `basis_order` of the two lattices, is the sign of w - w'. Lattices
    come by r, then w. Raises ValueError on the call unless r_max >= 1.

    With a `budget`, a lattice of order r >= 2 is yielded only when the
    excess sum(c_i - 2) of its Hirzebruch-Jung chain r/w = [c_1, ..., c_k]
    is at most the budget; the order stays the same. This keeps every
    germ with mld >= t when the budget is at least
    (2 - b1 - b2 - 2t)/t (Borisov's bound). Proof: the sail points
    u_0 = (0, 1), u_1 = (1, w)/r, ..., u_{k+1} = (1, 0) satisfy
    u_{i-1} + u_{i+1} = c_i*u_i (see `klein_sail`). With
    a_i = psi . u_i and psi = (1 - b1, 1 - b2) linear,
    sum_{i=1..k} (c_i - 2)*a_i telescopes to
    (a_0 - a_1) + (a_{k+1} - a_k). The points u_1, ..., u_k lie in the
    open quadrant, so mld >= t gives a_i >= t for them, while
    a_0 + a_{k+1} = 2 - b1 - b2; hence t*excess <= 2 - b1 - b2 - 2t.
    The swap reverses the chain and the boundary pair, so both
    orientations pass or fail together and `candidate_germs` dedupes
    the kept lattices exactly as in the full stream. The order-1
    lattice has no interior sail point and is always yielded.

    The chains are walked, not filtered: prepending c to the chain of
    r/w gives (c*r - w)/r, so every coprime (r, w) with 1 <= w < r is
    reached once from the empty chain (1, 0), the order-1 lattice, and
    r grows along each step; a heap keyed by (r, w) pops the chains in
    the order above. Each entry c adds c - 2 to the excess, so only
    runs of 2s grow without limit. Since excess <= r - 2, a budget of
    at least r_max - 2 prunes nothing; then the plain loop over (r, w)
    runs, as without a budget, and no heap of O(r_max^2) chains is
    kept.
    """
    if r_max < 1:
        raise ValueError(f"order bound must be a positive integer: {r_max}")

    def forms_of(r: int, w: int) -> tuple[_Form, _Form, int]:
        w_swap = pow(w, -1, r)
        return (r, 1, w, r), (r, 1, w_swap, r), (w > w_swap) - (w < w_swap)

    def forms() -> Iterator[tuple[_Form, _Form, int]]:
        yield (1, 1, 0, 1), (1, 1, 0, 1), 0
        for r in range(2, r_max + 1):
            for w in range(1, r):
                if math.gcd(w, r) == 1:
                    yield forms_of(r, w)

    def chains(budget: int) -> Iterator[tuple[_Form, _Form, int]]:
        # Entries (r, w, excess), the root (1, 0, 0) being the empty chain;
        # its forms are the order-1 ones, as pow(0, -1, 1) == 0.
        heap = [(1, 0, 0)]
        while heap:
            r, w, excess = heapq.heappop(heap)
            yield forms_of(r, w)
            c_max = min(budget - excess + 2, (r_max + w) // r)
            for c in range(2, c_max + 1):
                heapq.heappush(heap, (c * r - w, r, excess + c - 2))

    return forms() if budget is None or budget >= r_max - 2 else chains(budget)


def _swap_forms(lattices: Iterable[Lattice]) -> Iterator[tuple[_Form, _Form, int]]:
    """(form, swap form, order) for each lattice: one `swapped_lattice` per lattice."""
    for lat in lattices:
        swap = swapped_lattice(lat)
        yield lat.hnf, swap.hnf, basis_order(lat, swap)


class _LatticeWork:
    """What the classification of a lattice's germs shares, each part built on its first use.

    The Klein sails of the lattice and of its dual, and the series list
    at one threshold. A sweep makes one per form of its stream, so each
    is built once per lattice and lives while the sweep walks that
    form's germs; a single classification makes its own.
    """

    __slots__ = ("lattice", "_sail", "_dual_sail", "_series")

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self._sail: Optional[Sail] = None
        self._dual_sail: Optional[Sail] = None
        self._series: Optional[list[tuple[int, int]]] = None

    def sail(self) -> Sail:
        if self._sail is None:
            self._sail = klein_sail(self.lattice)
        return self._sail

    def dual_sail(self) -> Sail:
        if self._dual_sail is None:
            self._dual_sail = klein_sail(dual(self.lattice))
        return self._dual_sail

    def series(self, t: Rational) -> list[tuple[int, int]]:
        """`series_membership_lattice` at t, the same t on every call."""
        if self._series is None:
            self._series = series_membership_lattice(self.lattice, t)
        return self._series


def _certificate(
    work: _LatticeWork,
    t: Ratio,
    psi: Scaled,
    minimum: Minimum,
    data: Optional[CaseData] = None,
) -> Certificate:
    """The certificate at t = tn/td > 0 and psi = (c1, c2)/s, checked by `verify_certificate_scaled`.

    NotTLC, its point reduced, when the minimum is below t; otherwise
    the covector certificate, from `data` or a case analysis computed
    here on the dual sail of `work`. VerificationFailure, naming the
    lattice and psi, if the certificate fails its own check.
    """
    lat = work.lattice
    (vn, vd), (tn, td) = minimum.value, t
    if vn * td < tn * vd:
        denom = lat.hnf[0]
        x, y = minimum.first
        g = math.gcd(denom, x, y)
        cert: Certificate = NotTLC((denom // g, x // g, y // g), minimum.value)
    else:
        if data is None:
            data = case_analysis_lattice(lat, psi, minimum, work.dual_sail())
        cert = certificate_from_case_data(lat, data, psi, t)
    outcome = verify_certificate_scaled(lat, psi, t, cert)
    if not outcome.ok:
        _checker(lat, psi)(False, f"verify_certificate_lattice ({outcome.reason})")
    return cert


def classify_germ_record(
    germ: Germ,
    t: Rational,
    minimum: Optional[Minimum] = None,
    data: Optional[CaseData] = None,
    psi: Optional[Scaled] = None,
    work: Optional[_LatticeWork] = None,
) -> ClassifiedGerm:
    """Classify one germ, verify the certificate, attach series data.

    Returns the record, with a NotTLC certificate when the value is
    below the threshold (callers decide whether to stream those).
    `minimum`, `data` and `psi` are the germ's `sail_minimum`, case
    analysis and `germ_psi` when the caller already has them, and `work`
    the `_LatticeWork` of its lattice in a sweep; the case analysis is
    computed only when the certificate needs it. A `Fraction` threshold
    is used as it is, so a sweep builds none per germ. Raises ValueError
    for a threshold that is not positive, VerificationFailure if the
    certificate fails its own check.
    """
    if not isinstance(t, Fraction):
        t = Fraction(t)
    if t.numerator <= 0:
        positive_threshold(t)  # raises
    lat = germ.lattice
    if psi is None:
        psi = germ_psi(germ)
    if minimum is None:
        minimum = sail_minimum(lat, psi)
    if work is None:
        work = _LatticeWork(lat)
    cert = _certificate(work, (t.numerator, t.denominator), psi, minimum, data)
    return ClassifiedGerm(germ, t, minimum.value, cert, work.series(t))


def _fraction(b) -> Rational:
    """b as a `Fraction`, the same object when it is one already."""
    return b if isinstance(b, Fraction) else Fraction(b)


def _germ_stream(
    mode: str,
    bound: int,
    boundaries: Sequence[tuple[Rational, Rational]],
    budget: Optional[int],
) -> Iterator[tuple[_LatticeWork, tuple[Rational, Rational], Scaled]]:
    """`candidate_germs` as (lattice work, boundary pair, psi) triples.

    psi is built once per boundary pair, and one `_LatticeWork` serves
    every germ of a form. The mode, the bound and each boundary pair are
    checked on the call.
    """
    if mode == "cyclic":
        forms = _cyclic_forms(bound, budget)
    elif mode == "all":
        forms = _swap_forms(superlattices(bound))
    else:
        raise ValueError(f"unknown enumeration mode: {mode!r}")

    # Each boundary pair and its swap, with a small integer id for the
    # dedupe keys and its psi, and whether the pair is the least of the two.
    ids: dict[tuple[Rational, Rational], tuple[int, Scaled]] = {}

    def entry(pair: tuple[Rational, Rational]) -> tuple[int, Scaled]:
        if pair not in ids:
            b1, b2 = pair
            psi = scaled_psi((b1.numerator, b1.denominator), (b2.numerator, b2.denominator))
            ids[pair] = (len(ids), psi)
        return ids[pair]

    plan = []
    for b1, b2 in boundaries:
        pair = boundary_pair(_fraction(b1), _fraction(b2))
        swapped = pair[::-1]
        plan.append((pair, *entry(pair), swapped, *entry(swapped), pair <= swapped))

    def stream() -> Iterator[tuple[_LatticeWork, tuple[Rational, Rational], Scaled]]:
        # Keys are (integer form of the canonical lattice, boundary id).
        # Every germ of a form has the same canonical lattice: the swap's
        # when the swap comes first, else the form's own (order 0 means
        # the two forms are equal). Its work is built with the first germ.
        seen: set[tuple[_Form, int]] = set()
        for form, swap, order in forms:
            canon = swap if order > 0 else form
            work = None
            for pair, own, psi, swapped, other, swapped_psi, least in plan:
                if order < 0 or (order == 0 and least):
                    key = (canon, own)
                else:
                    key, pair, psi = (canon, other), swapped, swapped_psi
                if key in seen:
                    continue
                seen.add(key)
                if work is None:
                    work = _LatticeWork(Lattice(hnf=canon))
                yield work, pair, psi

    return stream()


def candidate_germs(
    mode: str,
    bound: int,
    boundaries: Sequence[tuple[Rational, Rational]] = ((Fraction(0), Fraction(0)),),
    budget: Optional[int] = None,
) -> Iterator[Germ]:
    """Deterministic stream of canonical germ representatives.

    mode "cyclic" walks cyclic quotient lattices of order up to the
    bound; mode "all" walks every superlattice of index up to the bound
    (including ones whose unit points are imprimitive). Each germ is
    replaced by the least of it and its coordinate swap, ordered as in
    `canonical_germ`, and germs equal up to the swap appear once, in
    first-seen order. Each lattice is swapped once, not once per
    boundary pair, and compared with its swap in integers. The mode, the
    bound and each boundary pair are checked on the call, before the
    first germ. In mode "cyclic", a `budget` keeps only the lattices
    whose Hirzebruch-Jung excess is at most the budget (see
    `_cyclic_forms`): the stream is the full one with the other
    lattices' germs left out. Mode "all" walks every lattice.
    """
    stream = _germ_stream(mode, bound, boundaries, budget)
    return (Germ(work.lattice, *pair) for work, pair, _ in stream)


def enumerate_germs(
    mode: str,
    bound: int,
    t: Rational,
    boundaries: Sequence[tuple[Rational, Rational]] = ((Fraction(0), Fraction(0)),),
    include_not_tlc: bool = False,
) -> Iterator[ClassifiedGerm]:
    """Classified canonical germs, each with a verified certificate.

    Records with value below t are withheld unless include_not_tlc is
    set (those carry a NotTLC certificate). A withheld germ costs its
    minimum and the check of its NotTLC certificate, which guards the
    drop. No per-germ step builds a rational: the threshold is reduced
    once, psi is built once per boundary pair, and the sails and the
    series list once per lattice (see `_germ_stream`). Most withheld
    germs need not be classified at all: without include_not_tlc, a
    cyclic sweep walks only the lattices within Borisov's excess bound
    (2 - b1 - b2 - 2t)/t of some boundary pair, outside which no germ
    reaches t (proof in `_cyclic_forms`). The threshold, the mode and the boundary pairs
    are checked on the call, before the first record; so is the size
    of the series lists (`series_membership_lattice`).
    """
    t = positive_threshold(Fraction(t))
    tn, td = ratio = t.numerator, t.denominator
    # The order-1 lattice, first in every stream, has the longest series list.
    _check_series_size(t, td // tn, 1, 1)
    budget = None
    if not include_not_tlc:
        # floor((2 - b1 - b2 - 2t)/t) for b_i = n_i/d_i, over the common denominator.
        budget = -1
        for b1, b2 in boundaries:
            b1, b2 = _fraction(b1), _fraction(b2)
            (n1, d1), (n2, d2) = (b1.numerator, b1.denominator), (b2.numerator, b2.denominator)
            room = (2 * d1 * d2 - n1 * d2 - n2 * d1) * td - 2 * tn * d1 * d2
            budget = max(budget, room // (d1 * d2 * tn))
    stream = _germ_stream(mode, bound, boundaries, budget)

    def records() -> Iterator[ClassifiedGerm]:
        for work, pair, psi in stream:
            lat = work.lattice
            minimum = sail_minimum(lat, psi, work.sail())
            vn, vd = minimum.value
            if include_not_tlc or vn * td >= tn * vd:
                yield classify_germ_record(Germ(lat, *pair), t, minimum, psi=psi, work=work)
            else:
                # Withheld: the check of its NotTLC certificate guards the
                # drop; it gets no series list and no record.
                _certificate(work, ratio, psi, minimum)

    return records()


"""Toric log germs and the exact minimal log discrepancy engine.

A germ is a full-rank superlattice of the integer plane (the ambient
cone is the positive quadrant, its two unit points primitive in the
lattice) together with two boundary coefficients in [0, 1]. The log
discrepancy of a lattice point in the open quadrant is its pairing with
psi, the componentwise complement of the boundary; the minimal log
discrepancy (mld) is the infimum of those pairings.

The minimum and its minimizers come from the Klein sail of the lattice
(the boundary of the convex hull of its points in the quadrant), walked
in O(log index) integer steps with collinear runs kept as arithmetic
progressions, once per `Lattice` object, which keeps it for its germs;
psi on an axis reads them off the Hermite normal form instead. The best single covector v1 and the scale gamma it
supports come from the sail of the dual lattice the same way. When psi
is interior, an adapted lattice basis whose slice interval
(alpha, beta) controls everything else completes the case analysis,
which works in the same integers and returns them: rationals as
reduced (num, den) pairs, covectors as integer pairs (the dual of a
superlattice of the integer plane lies in it) and lattice points over
the common denominator D of the Hermite normal form. `Fraction`s are
built only by the library functions of a germ (`mld`, `mld_argmin`)
and by the lattice forms (`mld_lattice`, `mld_argmin_lattice`,
`gamma_max_lattice`). Every derived identity is checked on the spot
against the sail minimum and raises VerificationFailure, naming the
lattice and psi, when it breaks. No step enumerates the quotient
except to return it: the minimizers of zero psi are all of the
representatives, which `residues` lists column by column off the
Hermite normal form, with no set and no sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .lattices import (
    Lattice,
    Ratio,
    Rational,
    Sail,
    Scaled,
    Vec2,
    _checker,
    _scaled_covector,
    _split_scaled,
    basis_order,
    dual,
    format_rational,
    in_cone,
    index,
    klein_sail,
    lattice_from_quotient_type,
    reduced,
    residues,
    swapped_lattice,
)


@dataclass(frozen=True)
class Germ:
    """Superlattice of the integer plane plus two boundary coefficients.

    Construct through `make_germ`, which validates: it checks the
    lattice in integers on its Hermite normal form, and both coefficients.
    Direct construction skips the checks; the enumerator uses that
    deliberately for quotient records whose unit points are imprimitive.
    """

    lattice: Lattice
    b1: Rational
    b2: Rational


def boundary_pair(b1: Rational, b2: Rational) -> tuple[Rational, Rational]:
    """The parsed boundary coefficients, unchanged; ValueError unless both lie in [0, 1]."""
    for name, b in (("b1", b1), ("b2", b2)):
        if not 0 <= b.numerator <= b.denominator:  # 0 <= b <= 1, in integers: cheaper per record
            raise ValueError(
                f"boundary coefficient {name} must lie in [0, 1]: {format_rational(b)}"
            )
    return b1, b2


def _fraction(b) -> Fraction:
    """b as a `Fraction`, the same object when it is one already."""
    return b if isinstance(b, Fraction) else Fraction(b)


def make_germ(lattice: Lattice, b1, b2) -> Germ:
    """Validated germ constructor.

    Raises ValueError unless the lattice contains the integer plane, its
    unit points e1 and e2 are primitive in it, and both coefficients lie
    in [0, 1]. The checks run on the Hermite normal form (D, a, b, d): in
    its basis e1 has the integer coordinates (D/a, -(D/a)*b/d) and e2 has
    (0, D/d), and a point is primitive iff its coordinates are coprime.
    A `Fraction` coefficient is kept as it is; others are converted.
    """
    index(lattice)  # raises ValueError unless the lattice contains the integer plane
    denom, a, b, d = lattice.hnf
    x = denom // a
    if math.gcd(x, x * b // d) != 1:
        raise ValueError("unit point e1 is not primitive in the germ lattice")
    if d != denom:
        raise ValueError("unit point e2 is not primitive in the germ lattice")
    return Germ(lattice, *boundary_pair(_fraction(b1), _fraction(b2)))


def germ_from_quotient_type(r: int, w1: int, w2: int, b1=0, b2=0) -> Germ:
    """Germ of the cyclic quotient with the given order and weights."""
    return make_germ(lattice_from_quotient_type(r, w1, w2), b1, b2)


def psi_of(germ: Germ) -> Vec2:
    """Componentwise complement of the boundary: (1 - b1, 1 - b2).

    Each coordinate is (q - p)/q for b = p/q, built directly: `1 - b`
    would go through `Fraction`'s reflected subtraction.
    """
    b1, b2 = germ.b1, germ.b2
    return Vec2(
        Fraction(b1.denominator - b1.numerator, b1.denominator),
        Fraction(b2.denominator - b2.numerator, b2.denominator),
    )


def scaled_psi(b1: Ratio, b2: Ratio) -> Scaled:
    """psi of the boundary (n1/d1, n2/d2), d1, d2 > 0, as (s, c1, c2) with psi = (c1, c2)/s.

    `psi_of` in integers: 1 - n/d = (d - n)/d over s = lcm(d1, d2).
    """
    (n1, d1), (n2, d2) = b1, b2
    scale = math.lcm(d1, d2)
    return scale, (d1 - n1) * (scale // d1), (d2 - n2) * (scale // d2)


def germ_psi(germ: Germ) -> Scaled:
    """`scaled_psi` of the germ's boundary."""
    b1, b2 = germ.b1, germ.b2
    return scaled_psi((b1.numerator, b1.denominator), (b2.numerator, b2.denominator))


def swapped_germ(germ: Germ) -> Germ:
    """Image of the germ under the coordinate swap."""
    return Germ(swapped_lattice(germ.lattice), germ.b2, germ.b1)


def canonical_germ(germ: Germ) -> Germ:
    """Least of the germ and its coordinate swap, for deduplication.

    Germs are ordered by the lattice's `basis` (compared in integers, see
    `basis_order`), then by (b1, b2).
    """
    other = swapped_germ(germ)
    order = basis_order(germ.lattice, other.lattice)
    if order < 0 or (order == 0 and (germ.b1, germ.b2) <= (other.b1, other.b2)):
        return germ
    return other


class Minimum(NamedTuple):
    """Least pairing of psi over the open quadrant and where it is attained, in integers.

    `value` is a reduced (num, den) pair. The minimizers in (0,1]^2 are
    (first + k*step)/D for 0 <= k < count, D = lat.hnf[0], in
    lexicographic order; a unique minimizer has a zero step. Zero psi is
    the exception: every representative attains the value 0, count is
    the index and the full list is `residues(lat)`.
    """

    value: Ratio
    first: tuple[int, int]
    step: tuple[int, int]
    count: int


def _open_sail_argmin(sail: Sail, c1: int, c2: int) -> tuple[int, int, int, int, int]:
    """Least c1*x + c2*y over the lattice points in the open quadrant.

    Needs c1, c2 > 0. Every such point lies in a unimodular cone of two
    consecutive sail points, so the minimizers are sail points other
    than the two axis points v_0 and v_{s+1}; when there are none the
    lattice is a grid and its corner is the only minimizer. The pairing
    is convex along the sail, so the minimizers are the start of the
    first edge it does not decrease along, or that whole edge when it is
    constant there. Returns (x, y, dx, dy, count) in the sail's integer
    coordinates.
    """
    edges = sail.edges
    last = len(edges) - 1
    if last == 0 and edges[0].length == 1:
        corner = edges[0]
        return corner.dx, corner.y, 0, 0, 1
    # Without a break, the pairing falls all the way: the last edge's
    # final interior point wins.
    for j, edge in enumerate(edges):
        slope = c1 * edge.dx + c2 * edge.dy
        if slope >= 0:
            break
    lo = 1 if j == 0 else 0
    hi = edge.length - 1 if j == last else edge.length
    if slope < 0:
        t, count = hi, 1
    else:
        t, count = lo, (hi - lo + 1 if slope == 0 else 1)
    step = (edge.dx, edge.dy) if count > 1 else (0, 0)
    return edge.x + t * edge.dx, edge.y + t * edge.dy, *step, count


def _axis_argmin(lat: Lattice, c1: int, c2: int) -> tuple[int, int, int, int, int]:
    """`_open_sail_argmin` for c1 = 0 or c2 = 0 (both nonnegative), off the Hermite normal form.

    With the basis ((a, b), (0, d))/D, psi = (c, 0) is least on the
    first column x = a, psi = (0, c) on the lowest row y = gcd(b, d), so
    the least pairing is c1*a + c2*gcd(b, d) over D times the scale.
    Returns (x, y, dx, dy, count) in the lattice's integer coordinates.
    """
    denom, a, b, d = lat.hnf
    if c2:
        # Lowest row: i*b + j*d = g exactly when i = u mod d/g, so the row
        # is a coset of the horizontal axis points, spaced h apart.
        g = math.gcd(b, d)
        u = pow(b // g, -1, d // g)
        h = a * (d // g)
        x = (u * a - 1) % h + 1
        return x, g, h, 0, (denom - x) // h + 1
    # First column, lowest point first; for zero psi that point is the
    # lexicographically least representative.
    y = (b - 1) % d + 1
    if c1:
        return a, y, 0, d, (denom - y) // d + 1
    return a, y, 0, 0, index(lat)


def sail_minimum(lat: Lattice, psi: Scaled) -> Minimum:
    """Minimum pairing over the open quadrant, with its minimizers as one run.

    `lat` is a full-rank superlattice of the integer plane and psi =
    (c1, c2)/s is componentwise nonnegative. Interior psi reads the
    minimum off the Klein sail, which `lat` walks once in O(log index)
    steps and keeps for every later psi; psi on an axis reads it off the
    Hermite normal form (`_axis_argmin`). No rational is built.
    """
    scale, c1, c2 = psi
    if c1 < 0 or c2 < 0:
        raise ValueError("psi must lie in the closed dual quadrant")
    if c1 and c2:
        x, y, dx, dy, count = _open_sail_argmin(klein_sail(lat), c1, c2)
    else:
        x, y, dx, dy, count = _axis_argmin(lat, c1, c2)
    return Minimum(reduced(c1 * x + c2 * y, scale * lat.hnf[0]), (x, y), (dx, dy), count)


def mld_lattice(lat: Lattice, psi: Vec2) -> Rational:
    """Minimum pairing over the open quadrant (see `sail_minimum`)."""
    return Fraction(*sail_minimum(lat, _scaled_covector(psi)).value)


# Most minimizers `mld_argmin_lattice` lists; at zero psi that is the index.
ARGMIN_LIMIT = 100_000


def mld_argmin_lattice(lat: Lattice, psi: Vec2) -> tuple[Rational, list[Vec2]]:
    """Minimum pairing and the sorted list of minimizing representatives.

    ValueError, before any point is built, when the list would hold
    more than ARGMIN_LIMIT points: `sail_minimum` counts them first.
    """
    minimum = sail_minimum(lat, _scaled_covector(psi))
    if minimum.count > ARGMIN_LIMIT:
        what = "index" if psi.is_zero() else "minimizer count"
        raise ValueError(
            f"{what} {minimum.count} is above the listing limit of {ARGMIN_LIMIT} minimizers"
        )
    value = Fraction(*minimum.value)
    if psi.is_zero():
        return value, residues(lat)
    denom = lat.hnf[0]
    (x, y), (dx, dy) = minimum.first, minimum.step
    return value, [
        Vec2(Fraction(x + k * dx, denom), Fraction(y + k * dy, denom))
        for k in range(minimum.count)
    ]


def mld(germ: Germ) -> Rational:
    """Minimal log discrepancy of the germ."""
    return Fraction(*sail_minimum(germ.lattice, germ_psi(germ)).value)


def mld_argmin(germ: Germ) -> tuple[Rational, list[Vec2]]:
    """Minimal log discrepancy plus all minimizing representatives."""
    return mld_argmin_lattice(germ.lattice, psi_of(germ))


def gamma_of(m: Vec2, psi: Vec2) -> Optional[Rational]:
    """Largest scale s keeping psi - s*m inside the closed dual quadrant.

    None encodes plus infinity, which happens only for the zero
    covector; any other quadrant covector has a positive coordinate and
    therefore a finite scale.
    """
    if not in_cone(m):
        raise ValueError("covector must lie in the closed dual quadrant")
    if not in_cone(psi):
        raise ValueError("psi must lie in the closed dual quadrant")
    best: Optional[Rational] = None
    for mi, pi in ((m.x1, psi.x1), (m.x2, psi.x2)):
        if mi > 0:
            ratio = pi / mi
            if best is None or ratio < best:
                best = ratio
    return best


def _best_covector(
    sail: Sail, scale: int, c1: int, c2: int, lam: Ratio, check: Callable[[bool, str], None]
) -> tuple[int, int, int, int, int]:
    """`gamma_max_lattice` for psi = (c1, c2)/scale and lam = ln/ld, in integers.

    `sail` is the Klein sail of the dual lattice. Returns (gn, gd, x, y,
    S): the scale gn/gd and the maximizer (x, y)/S, S the sail's
    denominator. A sail point's scale is min(c1*S/(scale*x),
    c2*S/(scale*y)) over its positive coordinates, compared by
    cross-multiplying.
    """
    for edge in sail.edges:
        g0 = edge.x * c2 - edge.y * c1
        slope = edge.dx * c2 - edge.dy * c1
        if g0 + edge.length * slope > 0:
            t = -g0 // slope
            ts = (t, t + 1)
            break
    else:
        ts = (edge.length,)
    denom = sail.denominator
    best: Optional[tuple[int, int, int, int]] = None
    for t in ts:
        x, y = edge.x + t * edge.dx, edge.y + t * edge.dy
        if x and (not y or c1 * y <= c2 * x):
            gn, gd = c1 * denom, scale * x
        else:
            gn, gd = c2 * denom, scale * y
        if best is None or gn * best[1] > best[0] * gd:
            best = (gn, gd, x, y)
    gn, gd, x, y = best
    ln, ld = lam
    check(2 * gn * ld >= ln * gd, "best covector scale >= lam/2")
    return gn, gd, x, y, denom


def gamma_max_lattice(m_lat: Lattice, psi: Vec2, lam: Rational) -> tuple[Rational, Vec2]:
    """Maximum scale over nonzero dual-lattice quadrant covectors.

    Returns the value and the lexicographically least maximizer. The
    scale only grows when a covector shrinks, so that maximizer is
    Pareto-minimal in the quadrant, and every Pareto-minimal point lies
    on the Klein sail of the dual lattice (a point of a unimodular cone
    of two sail points dominates one of them). Along the sail x rises
    and y falls, so 1/scale = max(x/psi1, y/psi2) falls until the two
    terms cross and rises after: the maximum sits at the last point
    with x*psi2 <= y*psi1 or the one after it. `lam` is the minimum
    pairing for the same data; the maximum is checked to reach lam/2.
    """
    if not in_cone(psi):
        raise ValueError("psi must lie in the closed dual quadrant")
    if psi.is_zero():
        raise ValueError("the covector bound needs a nonzero psi")
    scaled = _scaled_covector(psi)
    lam = Fraction(lam)
    gn, gd, x, y, denom = _best_covector(
        klein_sail(m_lat), *scaled, (lam.numerator, lam.denominator), _checker(m_lat, scaled)
    )
    return Fraction(gn, gd), Vec2(Fraction(x, denom), Fraction(y, denom))


class CaseTag(Enum):
    """Shape of the case analysis output.

    BOUNDARY_PSI: psi sits on the dual quadrant boundary, where the
    best covector already tells the whole story. SPLIT: interior psi,
    analyzed through an adapted basis.
    """

    BOUNDARY_PSI = "boundary_psi"
    SPLIT = "split"


class CaseData(NamedTuple):
    """Complete output of the case analysis, in integers.

    Rationals are reduced (num, den) pairs, covectors integer pairs and
    lattice points integer pairs over D = lat.hnf[0]. `mld` is the exact
    minimum of the discrepancy pairing, `gamma` the best covector scale
    and `v1` its covector. The split fields: (e1p, e2p) is the adapted
    lattice basis, (alpha, beta) the slice interval with beta None
    meaning unbounded, psi_prime the kernel component of the rescaled
    residual, v2 the covector dual to e2p, q_min the denominator of
    alpha, lambda_prime the second-order minimum, and c the pivot bound
    1 + psi_prime*(beta - alpha) for bounded slices.
    """

    tag: CaseTag
    gamma: Ratio
    v1: tuple[int, int]
    mld: Ratio
    e1p: Optional[tuple[int, int]] = None
    e2p: Optional[tuple[int, int]] = None
    alpha: Optional[Ratio] = None
    beta: Optional[Ratio] = None
    psi_prime: Optional[Ratio] = None
    v2: Optional[tuple[int, int]] = None
    lambda_prime: Optional[Ratio] = None
    q_min: Optional[int] = None
    c: Optional[Ratio] = None


def case_analysis_lattice(
    lat: Lattice,
    psi: Scaled,
    minimum: Optional[Minimum] = None,
) -> CaseData:
    """Closed-form discrepancy data for a superlattice of the integer plane.

    psi = (c1, c2)/s. `minimum` is `sail_minimum(lat, psi)` when the
    caller already has it; the best covector comes from the Klein sail
    of `dual(lat)`, which `lat` keeps, so the lattice's germs share one
    walk. Every derived identity is checked against that minimum; a
    failure raises VerificationFailure, because it means the closed
    forms disagree with each other, which is a bug, not bad input.

    The analysis runs in integers and returns them (see `CaseData`).
    With the best covector v1 = (vx, vy) and gamma = gn/gd
    (`_best_covector`), and the split e1p = (e1x, e1y)/D,
    e2p = (e2x, e2y)/D (`_split_scaled`): psi_prime =
    gd*(c1*e2x + c2*e2y)/(gn*s*D), because v1 pairs e2p to 0;
    v2 = (-e1y, e1x)*D/det with det = e1x*e2y - e1y*e2x; and the
    residual psi - gamma*v1 = (r1, r2)/(s*gd). The slice interval
    (alpha, beta) is where e1p + t*e2p lies in the open quadrant: each
    coordinate with a positive step bounds t below, a negative one
    above, and e1p is then shifted by floor(alpha) steps.
    """
    s, c1, c2 = psi
    if c1 < 0 or c2 < 0:
        raise ValueError("psi must lie in the closed dual quadrant")
    if not (c1 or c2):
        raise ValueError("case analysis needs a nonzero psi")
    if minimum is None:
        minimum = sail_minimum(lat, psi)
    dual_sail = klein_sail(dual(lat))
    if dual_sail.denominator != 1:
        raise ValueError("case analysis needs a lattice containing the integer plane")
    check = _checker(lat, psi)
    lam = ln, ld = minimum.value
    gn, gd, vx, vy, _ = _best_covector(dual_sail, s, c1, c2, lam, check)
    check(gn * ld <= ln * gd <= 2 * gn * ld, "gamma <= lam <= 2*gamma")
    gamma = reduced(gn, gd)

    if not (c1 and c2):
        # Boundary psi: the best covector realizes psi exactly.
        check(
            ln * gd == gn * ld and vx * gn * s == c1 * gd and vy * gn * s == c2 * gd,
            "lam*v1 == psi",
        )
        return CaseData(CaseTag.BOUNDARY_PSI, gamma, (vx, vy), reduced(ln, ld))

    denom = lat.hnf[0]
    e1x, e1y, e2x, e2y = _split_scaled(lat, 1, vx, vy)
    pn = c1 * e2x + c2 * e2y
    if pn < 0:
        e2x, e2y, pn = -e2x, -e2y, -pn
    elif pn == 0:
        e2x, e2y = max((e2x, e2y), (-e2x, -e2y))
    pn, pd = gd * pn, gn * s * denom  # psi_prime = pn/pd

    # Slice interval: lower = (num, den) of alpha before the shift, upper of beta.
    lower: Optional[tuple[int, int]] = None
    upper: Optional[tuple[int, int]] = None
    for base, step in ((e1x, e2x), (e1y, e2y)):
        if step > 0:
            if lower is None or -base * lower[1] > lower[0] * step:
                lower = (-base, step)
        elif step < 0:
            if upper is None or base * upper[1] < upper[0] * -step:
                upper = (base, -step)
        else:
            check(base > 0, "slice is parallel to an axis inside the quadrant")
    check(lower is not None, "slice is bounded below")
    check(upper is None or lower[0] * upper[1] < upper[0] * lower[1], "slice interval is nonempty")
    an, ad = lower
    shift = an // ad
    an -= shift * ad
    e1x, e1y = e1x + shift * e2x, e1y + shift * e2y
    check(0 <= an < ad, "0 <= alpha < 1")
    check(vx * e1x + vy * e1y == denom and vx * e2x + vy * e2y == 0, "v1 pairs to (1, 0)")

    # v2 = (-e1y, e1x)*D/det lies in the dual, so the divisions are exact
    # exactly when the pairings below hold.
    det = e1x * e2y - e1y * e2x
    v2x, v2y = -e1y * denom // det, e1x * denom // det
    check(v2x * e1x + v2y * e1y == 0 and v2x * e2x + v2y * e2y == denom, "v2 pairs to (0, 1)")

    # Residual vanishes along the slice's lower endpoint direction.
    r1, r2 = c1 * gd - s * gn * vx, c2 * gd - s * gn * vy
    check(
        r1 * (e1x * ad + an * e2x) + r2 * (e1y * ad + an * e2y) == 0,
        "residual vanishes at the lower end",
    )

    if upper is None:
        # v1 on the dual boundary: the slice escapes to infinity.
        check(vx == 0 or vy == 0, "unbounded slice has v1 on an axis")
        check(0 < pn <= pd, "0 < psi_prime <= 1")
        beta = c = None
    else:
        check(vx > 0 and vy > 0, "bounded slice has v1 interior")
        check(0 <= pn < pd, "0 <= psi_prime < 1")
        bn, bd = upper[0] - shift * upper[1], upper[1]
        cd = pd * bd * ad
        cn = cd + pn * (bn * ad - an * bd)  # c = 1 + psi_prime*(beta - alpha)
        check(bn * cd >= cn * bd and bn > bd, "beta >= c and beta > 1")
        beta, c = reduced(bn, bd), reduced(cn, cd)

    check(
        gn * (pd * ad + pn * (ad - an)) * ld == ln * gd * pd * ad,
        "gamma*(1 + psi_prime*(1 - alpha)) == lam",
    )

    # Positive kernel component forces a unique minimizer (the converse
    # can fail, e.g. on the index-2 diagonal superlattice).
    if pn > 0:
        check(
            minimum.count == 1 and minimum.first == (e1x + e2x, e1y + e2y),
            "minimizers == [e1p + e2p]",
        )

    alpha = reduced(an, ad)
    q_min = alpha[1]
    lpn, lpd = gn * pn, gd * pd * q_min  # lambda_prime = gamma*psi_prime/q_min
    # gamma is the binding scale, so the residual lies on an axis of the
    # dual quadrant, where its minimum is read off the Hermite normal form.
    check(r1 >= 0 and r2 >= 0 and (r1 == 0 or r2 == 0), "residual psi - gamma*v1 lies on an axis")
    x, y, *_ = _axis_argmin(lat, r1, r2)
    check(
        lpn * s * gd * denom == (r1 * x + r2 * y) * lpd,
        "lambda_prime == mld of the residual psi - gamma*v1",
    )
    if an > 0:
        check(
            ln * gd * ad * lpd == ld * (gn * ad * lpd + gd * q_min * (ad - an) * lpn),
            "lam == gamma + q_min*(1 - alpha)*lambda_prime",
        )

    return CaseData(
        CaseTag.SPLIT,
        gamma,
        (vx, vy),
        reduced(ln, ld),
        (e1x, e1y),
        (e2x, e2y),
        alpha,
        beta,
        reduced(pn, pd),
        (v2x, v2y),
        reduced(lpn, lpd),
        q_min,
        c,
    )

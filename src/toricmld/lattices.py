"""Exact rational plane lattices with canonical bases.

Scalars are `fractions.Fraction` or integers; nothing in this package
touches floating point. A lattice is a full-rank subgroup of the
rational plane, stored by its canonical triangular basis scaled to
integers, so integer equality decides lattice equality in constant
time, and membership, index, dual and the coordinate swap are computed
on those integers. Generators that do not span the plane are invalid
input.
The fixed cone everywhere is the closed positive quadrant; its dual is
the closed positive quadrant of covectors.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import VerificationFailure

Rational = Fraction
# A rational as (num, den) with den > 0; reduced wherever the engine returns one.
Ratio = tuple[int, int]
# A point or covector (x, y)/s of the rational plane as the integers (s, x, y), s > 0.
Scaled = tuple[int, int, int]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?\Z")


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse a "p/q" or "n" literal into integers (p, q), q > 0, not reduced.

    The pattern admits ASCII digits only, so `int()` reads each matched
    digit string without its looser grammar (underscores, other scripts).
    """
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return int(num), int(den) if den else 1


def parse_rational(text: str) -> Rational:
    """Parse a "p/q" or "n" literal into an exact rational."""
    num, den = parse_ratio(text)
    return Fraction(num, den) if den != 1 else Fraction(num)


def positive_threshold(t: Rational) -> Rational:
    """The parsed threshold t, unchanged; ValueError unless t > 0."""
    if t <= 0:
        raise ValueError(f"threshold must be positive: {format_rational(t)}")
    return t


def simplex_ratio(p: int, q: int) -> Rational:
    """The ratio p/q, reduced; ValueError unless p and q are positive integers."""
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive integers: {p}/{q}")
    return Fraction(p, q)


def format_rational(x: Rational) -> str:
    """Render an exact rational as "p/q", or plain "n" for integers."""
    x = _exact(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(num: int, den: int) -> str:
    """`format_rational` of num/den for den > 0, reduced in integers."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def reduced(num: int, den: int) -> Ratio:
    """num/den, den > 0, as a reduced (num, den) pair."""
    g = math.gcd(num, den)
    return num // g, den // g


class Vec2(NamedTuple):
    """Point of the rational plane; also used for covectors.

    The duality pairing of a covector with a point is the dot product.
    """

    x1: Rational
    x2: Rational

    def __add__(self, other: "Vec2") -> "Vec2":  # type: ignore[override]
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x1, -self.x2)

    def scaled(self, c: Rational) -> "Vec2":
        return Vec2(self.x1 * c, self.x2 * c)

    def swapped(self) -> "Vec2":
        return Vec2(self.x2, self.x1)

    def is_zero(self) -> bool:
        return self.x1 == 0 and self.x2 == 0


def _exact(x) -> Rational:
    """x as an exact rational; an int or a Fraction is returned as it is."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def vec(x1, x2) -> Vec2:
    """Build a Vec2, coercing both coordinates to exact rationals."""
    return Vec2(Fraction(x1), Fraction(x2))


E1 = vec(1, 0)
E2 = vec(0, 1)


def in_cone(v: Vec2) -> bool:
    """Membership in the closed positive quadrant."""
    return v.x1 >= 0 and v.x2 >= 0


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Lattice:
    """Full-rank lattice in the rational plane.

    Identified by `hnf`, its canonical scaled Hermite normal form
    (D, a, b, d): the basis ((a/D, b/D), (0, d/D)) with a, d > 0,
    0 <= b < d and gcd(D, a, b, d) = 1, so D is the least common
    denominator of the lattice. `==` and hashing read those integers.
    `basis` is the rational form ((a/D, b/D), (0, d/D)), built on first
    access and kept, so equal lattices have equal bases. `Lattice(hnf=...)`
    takes a form that is already canonical; `lattice_from_generators`
    reduces any spanning points to it. Instances are immutable by
    convention; only the cached `basis` is filled in after construction.
    """

    __slots__ = ("hnf", "_basis")

    def __init__(self, *, hnf: tuple[int, int, int, int]):
        self._basis: Optional[tuple[Vec2, ...]] = None
        self.hnf = hnf

    @property
    def basis(self) -> tuple[Vec2, ...]:
        if self._basis is None:
            denom, a, b, d = self.hnf
            self._basis = (
                Vec2(Fraction(a, denom), Fraction(b, denom)),
                Vec2(Fraction(0), Fraction(d, denom)),
            )
        return self._basis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.hnf == other.hnf

    def __hash__(self) -> int:
        return hash(self.hnf)

    def __repr__(self) -> str:
        rows = ", ".join(
            f"({format_rational(g.x1)},{format_rational(g.x2)})" for g in self.basis
        )
        return f"Lattice[{rows}]"


def _lattice_from_rows(rows: Iterable[tuple[int, int]], scale: int) -> Lattice:
    """Canonical lattice generated by the integer rows divided by scale."""
    # Fold every row with a nonzero first coordinate into a single lead row;
    # each fold is unimodular and sheds a pure second-coordinate remainder,
    # and those remainders generate the vertical part (0, d).
    lead: Optional[tuple[int, int]] = None
    d = 0
    for a, b in rows:
        if a == 0:
            d = math.gcd(d, b)
            continue
        if lead is None:
            lead = (a, b) if a > 0 else (-a, -b)
            continue
        a1, b1 = lead
        g, u, v = _xgcd(a1, a)
        d = math.gcd(d, (a1 // g) * b - (a // g) * b1)
        lead = (g, u * b1 + v * b)

    if lead is None or d == 0:
        raise ValueError("lattice generators do not span the plane")
    a, b = lead
    b %= d
    g = math.gcd(scale, a, b, d)
    return Lattice(hnf=(scale // g, a // g, b // g, d // g))


def lattice_from_generators(gens: Iterable[Sequence]) -> Lattice:
    """Canonical basis of the lattice generated by the given points.

    Raises ValueError unless the points span the plane.
    """
    pts = [(_exact(g[0]), _exact(g[1])) for g in gens]
    scale = math.lcm(*[c.denominator for g in pts for c in g])
    return _lattice_from_rows(
        [
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in pts
        ],
        scale,
    )


def basis_order(lat: Lattice, other: Lattice) -> int:
    """Sign (-1, 0, 1) of the lexicographic comparison of the two canonical bases.

    Compares a/D, then b/D, then d/D by cross-multiplying the integer
    forms, so no rational is built.
    """
    denom, a, b, d = lat.hnf
    denom2, a2, b2, d2 = other.hnf
    left = (a * denom2, b * denom2, d * denom2)
    right = (a2 * denom, b2 * denom, d2 * denom)
    return (left > right) - (left < right)


STANDARD_LATTICE = lattice_from_generators([E1, E2])


def lattice_from_quotient_type(r: int, w1: int, w2: int) -> Lattice:
    """Superlattice of the integer plane generated adjointly by (w1/r, w2/r).

    Both weights must be coprime to r; this is exactly the condition for
    the two unit points to stay primitive in the result.
    """
    if r < 1:
        raise ValueError("quotient order must be a positive integer")
    if math.gcd(w1, r) != 1:
        raise ValueError(f"first weight {w1} shares a factor with the order {r}")
    if math.gcd(w2, r) != 1:
        raise ValueError(f"second weight {w2} shares a factor with the order {r}")
    # A unit multiple turns the generator into (1/r, w/r) with w = w2/w1
    # mod r; the form ((1/r, w/r), (0, 1)) is then already canonical.
    return Lattice(hnf=(r, 1, w2 * pow(w1, -1, r) % r, r))


def _scaled_covector(m: Vec2) -> Scaled:
    """(s, c1, c2): the vector m times its least common denominator s."""
    scale = math.lcm(m.x1.denominator, m.x2.denominator)
    return (
        scale,
        m.x1.numerator * (scale // m.x1.denominator),
        m.x2.numerator * (scale // m.x2.denominator),
    )


def _coordinates(lat: Lattice, s: int, n1: int, n2: int) -> Optional[tuple[int, int]]:
    """Integer coordinates of v = (n1, n2)/s in the canonical basis; None when v is not in the lattice.

    With the basis ((a, b), (0, d))/D, the coordinates are
    x = n1*D/(s*a) and y = (n2*D - x*b*s)/(s*d).
    """
    denom, a, b, d = lat.hnf
    x, rem = divmod(n1 * denom, s * a)
    if rem:
        return None
    y, rem = divmod(n2 * denom - x * b * s, s * d)
    if rem:
        return None
    return x, y


def contains(lat: Lattice, v: Sequence) -> bool:
    """True iff the point lies in the lattice (solved against the basis)."""
    if not isinstance(v, Vec2):
        v = vec(v[0], v[1])
    return _coordinates(lat, *_scaled_covector(v)) is not None


def _checker(lat: Lattice, psi: Optional[Scaled] = None) -> Callable[[bool, str], None]:
    """check(ok, identity) raises VerificationFailure naming lat, psi if given, and the identity.

    psi is (s, c1, c2) for (c1, c2)/s.
    """

    def check(ok: bool, identity: str) -> None:
        if not ok:
            where = repr(lat)
            if psi is not None:
                s, c1, c2 = psi
                where += f" at psi ({format_ratio(c1, s)},{format_ratio(c2, s)})"
            raise VerificationFailure(f"{identity} fails for {where}")

    return check


def index(lat: Lattice) -> int:
    """Order of the quotient of the lattice by the standard integer lattice.

    Only defined for superlattices of the integer plane. With the basis
    ((a, b), (0, d))/D, e2 lies in the lattice iff d divides D and e1
    iff a divides D and d divides (D/a)*b; the index is then
    (D/a)*(D/d), the inverse of the determinant a*d/D^2: once a | D and
    d | D hold, (D/a)*(D/d)*a*d = D^2 is exact.
    """
    denom, a, b, d = lat.hnf
    if denom % a or denom % d or (denom // a * b) % d:
        raise ValueError("lattice does not contain the integer plane")
    return (denom // a) * (denom // d)


def residues(lat: Lattice) -> list[Vec2]:
    """Representatives of the quotient by the integer plane, in (0,1]^2.

    Exactly index(lat) points, in lexicographic order; the class of
    zero is represented by (1, 1). With the basis ((a, b), (0, d))/D
    the points of (0, 1]^2 lie in the columns x = i*a/D, i = 1, ..., D/a,
    and column i holds the second numerators congruent to i*b mod d,
    from y_i = (i*b - 1) mod d + 1 up to D in steps of d: D/d points, as
    d divides D. Listing the columns in order lists every class once,
    sorted, with no set; rationals are built only for the returned points.
    """
    index(lat)  # raises ValueError unless the lattice contains the integer plane
    denom, a, b, d = lat.hnf
    return [
        Vec2(Fraction(i * a, denom), Fraction(y, denom))
        for i in range(1, denom // a + 1)
        for y in range((i * b - 1) % d + 1, denom + 1, d)
    ]


class SailEdge(NamedTuple):
    """Lattice points (x + t*dx, y + t*dy) for 0 <= t <= length, in integers."""

    x: int
    y: int
    dx: int
    dy: int
    length: int


class Sail(NamedTuple):
    """Klein sail of a lattice in the closed quadrant.

    The sail is the compact part of the boundary of the convex hull of
    the nonzero lattice points of the closed quadrant. Its lattice
    points v_0, ..., v_{s+1} run from the primitive point of the
    vertical axis to the primitive point of the horizontal axis, with x
    strictly increasing and y strictly decreasing, and every cone
    spanned by two consecutive points is unimodular. Coordinates are
    scaled by `denominator`, the basis's common denominator; `edges`
    are the maximal straight runs, so collinear points cost nothing.
    """

    denominator: int
    edges: list[SailEdge]


def klein_sail(lat: Lattice) -> Sail:
    """Klein sail of a lattice, in O(log index) integer steps.

    With the scaled basis ((a, b), (0, d)), v_0 = (0, d) and v_1 = (a, b)
    form a lattice basis, and d*v_1 - b*v_0 lies on the horizontal axis.
    The sail points follow the Hirzebruch-Jung recursion
    v_{i+1} = c_i*v_i - v_{i-1}, where d/b = c_1 - 1/(c_2 - 1/...); only
    the ratio matters, so no gcd is taken. A run of c_i = 2 continues the
    current edge; from the remainder n/k it is k // (n - k) terms long
    and is skipped in one step, so the walk takes O(log index) steps.
    """
    denom, a, b, d = lat.hnf
    # Invariant: n*(px, py) - k*(previous point) lies on the horizontal axis.
    n, k = d, b
    px, py = a, b
    sx, sy = a, b - d
    start, length = (0, d), 1
    edges: list[SailEdge] = []
    while k:
        c = -(-n // k)
        if c == 2:
            e = n - k
            run = k // e
            length += run
            px, py = px + run * sx, py + run * sy
            n, k = k - (run - 1) * e, k - run * e
        else:
            edges.append(SailEdge(*start, sx, sy, length))
            start, length = (px, py), 1
            sx, sy = sx + (c - 2) * px, sy + (c - 2) * py
            px, py = px + sx, py + sy
            n, k = k, c * k - n
    edges.append(SailEdge(*start, sx, sy, length))
    return Sail(denom, edges)


def is_primitive(lat: Lattice, v: Sequence) -> bool:
    """True iff no proper integer fraction of v stays in the lattice."""
    v = vec(v[0], v[1])
    if v.is_zero():
        raise ValueError("primitivity is undefined for the zero vector")
    if not contains(lat, v):
        raise ValueError("vector lies outside the lattice")
    return math.gcd(*_coordinates(lat, *_scaled_covector(v))) == 1


def dual(lat: Lattice) -> Lattice:
    """Covectors pairing integrally with the lattice.

    The dual basis of ((a, b), (0, d))/D is (D/a, 0) and (-b*D/(a*d), D/d),
    that is the rows (D*d, 0) and (-b*D, a*D) divided by a*d.
    """
    denom, a, b, d = lat.hnf
    return _lattice_from_rows([(denom * d, 0), (-b * denom, a * denom)], a * d)


def _split_scaled(lat: Lattice, scale: int, m1: int, m2: int) -> tuple[int, int, int, int]:
    """Adapted basis for the covector (m1, m2)/scale, in integers.

    The lattice basis e1p, e2p pairs with the covector to 1 and 0;
    ValueError unless the pairing image is all of the integers. Returns
    (e1x, e1y, e2x, e2y) with e1p = (e1x, e1y)/D and
    e2p = (e2x, e2y)/D, D the lattice's common denominator. With the
    basis ((a, b), (0, d))/D the pairings are p1 = (m1*a + m2*b)/(scale*D)
    and p2 = m2*d/(scale*D); for u*p1 + w*p2 = 1, e1p = u*r1 + w*r2 and
    e2p = p2*r1 - p1*r2.
    """
    denom, a, b, d = lat.hnf
    p1, rem1 = divmod(m1 * a + m2 * b, scale * denom)
    p2, rem2 = divmod(m2 * d, scale * denom)
    if rem1 or rem2:
        raise ValueError("covector does not pair integrally with the lattice")
    g, u, w = _xgcd(p1, p2)
    if g != 1:
        raise ValueError("pairing image is a proper subgroup of the integers")
    return u * a, u * b + w * d, p2 * a, p2 * b - p1 * d


def points_in_box(lat: Lattice, c1: Rational, c2: Rational) -> list[Vec2]:
    """All lattice points in the box [0, c1] x [0, c2], sorted."""
    if c1 < 0 or c2 < 0:
        return []
    r1, r2 = lat.basis
    a, b = r1.x1, r1.x2
    d = r2.x2
    out: list[Vec2] = []
    for i in range(math.floor(c1 / a) + 1):
        lo = math.ceil(-i * b / d)
        hi = math.floor((c2 - i * b) / d)
        for j in range(lo, hi + 1):
            out.append(Vec2(i * a, i * b + j * d))
    out.sort()
    return out


def swapped_lattice(lat: Lattice) -> Lattice:
    """Image of the lattice under the coordinate swap.

    Swaps the rows (a, b) and (0, d) of the integer form and reduces
    them again; the common denominator D does not change.
    """
    denom, a, b, d = lat.hnf
    return _lattice_from_rows([(b, a), (d, 0)], denom)


def cyclic_type(lat: Lattice) -> Optional[tuple[int, int, int]]:
    """Canonical quotient type (r, w1, w2) when the quotient is cyclic.

    Requires a superlattice of the integer plane. Returns None
    for non-cyclic quotients; the identity lattice reports (1, 0, 0).
    The representative is the lexicographically least generator among
    all unit multiples, with weights in [0, r).
    """
    n = index(lat)
    denom, a, b, d = lat.hnf
    p, q = denom // a, denom // d
    beta = p * b // d
    # With r1 = (1/p, b/D), r2 = (0, 1/q) and n = p*q, Z^2 is spanned by
    # p*r1 - beta*r2 and q*r2: the quotient is cyclic iff gcd(p, beta, q) = 1.
    # A unit multiple moves a generator's first coordinate to 1/p (weight
    # q % n); there r1 + j*r2 = (q, beta + j*p)/n generates iff its second
    # weight is coprime to q. So the loop stops within Jacobsthal(q) steps.
    if math.gcd(p, beta, q) != 1:
        return None
    w = beta % p
    while math.gcd(w, q) != 1:
        w += p
    return (n, q % n, w)


def sublattices_of_standard(n: int) -> list[Lattice]:
    """Integer sublattices of the standard plane of index n.

    Enumerated by triangular bases ((a, b), (0, d)) with a*d = n and
    0 <= b < d, each sublattice exactly once, ordered by (a, b).
    """
    if n < 1:
        raise ValueError("index must be a positive integer")
    out: list[Lattice] = []
    for a in (a for a in range(1, n + 1) if n % a == 0):
        d = n // a
        for b in range(d):
            out.append(Lattice(hnf=(1, a, b, d)))
    return out


def superlattices(index_max: int) -> Iterator[Lattice]:
    """All superlattices of the integer plane of index up to the bound.

    Produced as duals of integer sublattices, ordered by index and then
    by the sublattice basis; each superlattice appears exactly once.
    Raises ValueError on the call unless index_max >= 1.
    """
    if index_max < 1:
        raise ValueError(f"index bound must be a positive integer: {index_max}")
    return (dual(sub) for n in range(1, index_max + 1) for sub in sublattices_of_standard(n))

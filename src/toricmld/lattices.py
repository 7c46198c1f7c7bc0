"""Exact rational plane lattices with canonical bases.

Scalars are `fractions.Fraction` throughout; nothing in this package
touches floating point. A subgroup of the rational plane is stored by a
canonical triangular basis, so structural equality decides subgroup
equality in constant time. The fixed cone everywhere is the closed
positive quadrant; its dual is the closed positive quadrant of covectors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Rational = Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


def parse_rational(text: str) -> Rational:
    """Parse a "p/q" or "n" literal into an exact rational."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(x: Rational) -> str:
    """Render an exact rational as "p/q", or plain "n" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Vec2(NamedTuple):
    """Point of the rational plane; also used for covectors.

    The duality pairing of a covector with a point is the dot product,
    see `dot`.
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


def vec(x1, x2) -> Vec2:
    """Build a Vec2, coercing both coordinates to exact rationals."""
    return Vec2(Fraction(x1), Fraction(x2))


ZERO = vec(0, 0)
E1 = vec(1, 0)
E2 = vec(0, 1)


def dot(m: Vec2, v: Vec2) -> Rational:
    """Duality pairing between a covector and a point."""
    return m.x1 * v.x1 + m.x2 * v.x2


def in_cone(v: Vec2) -> bool:
    """Membership in the closed positive quadrant."""
    return v.x1 >= 0 and v.x2 >= 0


def in_cone_interior(v: Vec2) -> bool:
    """Membership in the open positive quadrant."""
    return v.x1 > 0 and v.x2 > 0


def on_cone_boundary(v: Vec2) -> bool:
    """In the closed quadrant with at least one coordinate zero."""
    return in_cone(v) and (v.x1 == 0 or v.x2 == 0)


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


@dataclass(frozen=True)
class Lattice:
    """Finitely generated subgroup of the rational plane.

    `basis` is canonical: rank 2 stores ((a, b), (0, d)) with a, d > 0
    and 0 <= b < d; rank 1 stores a single generator whose leading
    nonzero coordinate is positive; rank 0 stores nothing. Build through
    `lattice_from_generators` (or the other constructors here), never by
    hand, so that `==` keeps meaning subgroup equality.
    """

    rank: int
    basis: tuple[Vec2, ...]

    def __repr__(self) -> str:
        rows = ", ".join(
            f"({format_rational(g.x1)},{format_rational(g.x2)})" for g in self.basis
        )
        return f"Lattice[{rows}]"


def lattice_from_generators(gens: Iterable[Sequence]) -> Lattice:
    """Canonical basis of the subgroup generated by the given points.

    An empty list (or all-zero generators) yields the trivial subgroup.
    """
    pts = [vec(g[0], g[1]) for g in gens]
    pts = [g for g in pts if not g.is_zero()]
    if not pts:
        return Lattice(0, ())
    scale = math.lcm(*[c.denominator for g in pts for c in (g.x1, g.x2)])
    rows = [(int(g.x1 * scale), int(g.x2 * scale)) for g in pts]

    # Fold every row with a nonzero first coordinate into a single lead row;
    # each fold is unimodular and sheds a pure second-coordinate remainder.
    lead: Optional[tuple[int, int]] = None
    tails: list[int] = []
    for a, b in rows:
        if a == 0:
            tails.append(b)
            continue
        if lead is None:
            lead = (a, b) if a > 0 else (-a, -b)
            continue
        a1, b1 = lead
        g, u, v = _xgcd(a1, a)
        tails.append((a1 // g) * b - (a // g) * b1)
        lead = (g, u * b1 + v * b)

    d = 0
    for b in tails:
        d = math.gcd(d, b)

    if lead is None:
        if d == 0:
            return Lattice(0, ())
        return Lattice(1, (Vec2(Fraction(0), Fraction(d, scale)),))
    a1, b1 = lead
    if d == 0:
        return Lattice(1, (Vec2(Fraction(a1, scale), Fraction(b1, scale)),))
    b1 %= d
    return Lattice(
        2,
        (
            Vec2(Fraction(a1, scale), Fraction(b1, scale)),
            Vec2(Fraction(0), Fraction(d, scale)),
        ),
    )


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
    return lattice_from_generators([E1, E2, vec(Fraction(w1, r), Fraction(w2, r))])


def _coordinates(lat: Lattice, v: Vec2) -> tuple[Rational, Rational]:
    """Coordinates of v in the rank-2 basis (exact, possibly non-integral)."""
    r1, r2 = lat.basis
    x = v.x1 / r1.x1
    y = (v.x2 - x * r1.x2) / r2.x2
    return x, y


def contains(lat: Lattice, v: Sequence) -> bool:
    """True iff the point lies in the subgroup (solved against the basis)."""
    v = vec(v[0], v[1])
    if lat.rank == 0:
        return v.is_zero()
    if lat.rank == 1:
        (g,) = lat.basis
        if g.x1 != 0:
            c = v.x1 / g.x1
        else:
            if v.x1 != 0:
                return False
            c = v.x2 / g.x2
        return c.denominator == 1 and g.scaled(c) == v
    x, y = _coordinates(lat, v)
    return x.denominator == 1 and y.denominator == 1


def index(lat: Lattice) -> int:
    """Order of the quotient of the lattice by the standard integer lattice.

    Only defined for full-rank superlattices of the integer plane.
    """
    if lat.rank != 2:
        raise ValueError("index needs a rank-2 lattice")
    if not (contains(lat, E1) and contains(lat, E2)):
        raise ValueError("index needs a lattice containing the integer plane")
    r1, r2 = lat.basis
    order = 1 / (r1.x1 * r2.x2)
    assert order.denominator == 1
    return int(order)


def scaled_basis(lat: Lattice) -> tuple[int, int, int, int]:
    """(D, a, b, d): a rank-2 basis ((a, b), (0, d)) times its common denominator D."""
    if lat.rank != 2:
        raise ValueError("scaled basis needs a full-rank lattice")
    r1, r2 = lat.basis
    denom = math.lcm(r1.x1.denominator, r1.x2.denominator, r2.x2.denominator)
    a = r1.x1.numerator * (denom // r1.x1.denominator)
    b = r1.x2.numerator * (denom // r1.x2.denominator)
    d = r2.x2.numerator * (denom // r2.x2.denominator)
    return denom, a, b, d


def residues(lat: Lattice) -> list[Vec2]:
    """Representatives of the quotient by the integer plane, in (0,1]^2.

    Exactly index(lat) points, sorted lexicographically; the class of
    zero is represented by (1, 1). The enumeration runs in integers
    scaled by the basis's common denominator; rationals are built only
    for the returned points.
    """
    n = index(lat)
    r1, r2 = lat.basis
    denom, a, b, d = scaled_basis(lat)
    # The unit points lie in the lattice, so r1.x1 = 1/p and r2.x2 = 1/q
    # and i*r1 + j*r2 for 0 <= i < p, 0 <= j < q hit every class once.
    seen: set[tuple[int, int]] = set()
    for i in range(r1.x1.denominator):
        x = (i * a - 1) % denom + 1
        for j in range(r2.x2.denominator):
            seen.add((x, (i * b + j * d - 1) % denom + 1))
    assert len(seen) == n
    return [Vec2(Fraction(x, denom), Fraction(y, denom)) for x, y in sorted(seen)]


class SailEdge(NamedTuple):
    """Lattice points (x + t*dx, y + t*dy) for 0 <= t <= length, in integers."""

    x: int
    y: int
    dx: int
    dy: int
    length: int


class Sail(NamedTuple):
    """Klein sail of a full-rank lattice in the closed quadrant.

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
    """Klein sail of a full-rank lattice, in O(log index) integer steps.

    With the scaled basis ((a, b), (0, d)), v_0 = (0, d) and v_1 = (a, b)
    form a lattice basis, and d*v_1 - b*v_0 lies on the horizontal axis.
    The sail points follow the Hirzebruch-Jung recursion
    v_{i+1} = c_i*v_i - v_{i-1}, where d/b = c_1 - 1/(c_2 - 1/...); only
    the ratio matters, so no gcd is taken. A run of c_i = 2 continues the
    current edge; from the remainder n/k it is k // (n - k) terms long
    and is skipped in one step, so the walk takes O(log index) steps.
    """
    denom, a, b, d = scaled_basis(lat)
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
    """True iff no proper integer fraction of v stays in the subgroup."""
    v = vec(v[0], v[1])
    if v.is_zero():
        raise ValueError("primitivity is undefined for the zero vector")
    if not contains(lat, v):
        raise ValueError("vector lies outside the lattice")
    if lat.rank == 1:
        (g,) = lat.basis
        c = v.x1 / g.x1 if g.x1 != 0 else v.x2 / g.x2
        return abs(c) == 1
    x, y = _coordinates(lat, v)
    return math.gcd(int(x), int(y)) == 1


def dual(lat: Lattice) -> Lattice:
    """Covectors pairing integrally with a full-rank lattice."""
    if lat.rank != 2:
        raise ValueError("dual as a lattice needs rank 2; see dual_parts")
    r1, r2 = lat.basis
    det = r1.x1 * r2.x2 - r1.x2 * r2.x1
    g1 = Vec2(r2.x2 / det, -r2.x1 / det)
    g2 = Vec2(-r1.x2 / det, r1.x1 / det)
    return lattice_from_generators([g1, g2])


def _primitive_integer(v: Vec2) -> Vec2:
    """Shortest integer vector on the ray of v (v nonzero)."""
    s = math.lcm(v.x1.denominator, v.x2.denominator)
    a, b = int(v.x1 * s), int(v.x2 * s)
    g = math.gcd(a, b)
    return vec(a // g, b // g)


def dual_parts(lat: Lattice) -> tuple[Lattice, tuple[Vec2, ...]]:
    """Dual subgroup split as (lattice part, basis of the linear part).

    The dual of a rank-deficient subgroup contains a whole linear
    subspace of covectors vanishing on it; the discrete remainder is
    reported inside the span of the input.
    """
    if lat.rank == 2:
        return dual(lat), ()
    if lat.rank == 1:
        (g,) = lat.basis
        perp = _primitive_integer(Vec2(-g.x2, g.x1))
        if perp < -perp:
            perp = -perp
        along = g.scaled(1 / dot(g, g))
        return lattice_from_generators([along]), (perp,)
    return Lattice(0, ()), (E1, E2)


class InteriorPoint(NamedTuple):
    point: Vec2


class CoWitness(NamedTuple):
    covector: Vec2


def interior_witness(lat: Lattice) -> Union[InteriorPoint, CoWitness]:
    """A subgroup point inside the open quadrant, if one exists.

    Otherwise returns a nonzero quadrant covector pairing to zero with
    the whole subgroup, which proves no interior point can exist.
    """
    if lat.rank == 2:
        r1, r2 = lat.basis
        k = math.floor(-r1.x2 / r2.x2) + 1
        p = r1 + r2.scaled(Fraction(k))
        assert in_cone_interior(p)
        return InteriorPoint(p)
    if lat.rank == 1:
        (g,) = lat.basis
        if in_cone_interior(g):
            return InteriorPoint(g)
        if in_cone_interior(-g):
            return InteriorPoint(-g)
        w = _primitive_integer(Vec2(-g.x2, g.x1))
        if not in_cone(w):
            w = -w
        assert in_cone(w) and not w.is_zero()
        return CoWitness(w)
    return CoWitness(E2)


class GapEmpty(NamedTuple):
    y: Rational


class GapHit(NamedTuple):
    x: Rational


def gap_witness_1d(g: Rational, t: Rational) -> Union[GapEmpty, GapHit]:
    """Decide whether the multiples of g meet the open interval (0, t).

    A miss is certified by a dual element in (0, 1/t]; a hit is returned
    directly. The zero generator always misses.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("interval length must be positive")
    g = abs(Fraction(g))
    if g == 0:
        return GapEmpty(1 / t)
    if g < t:
        return GapHit(g)
    return GapEmpty(1 / g)


class CovectorSplit(NamedTuple):
    e1p: Vec2
    e2p: Vec2


def split_along_covector(lat: Lattice, m: Vec2) -> CovectorSplit:
    """Adapted basis for a covector with full integer pairing image.

    Returns lattice points (e1p, e2p) with pairings (1, 0): e1p maps to
    the generator of the image and e2p generates the kernel sublattice
    (primitive there). Together they form a basis of the lattice.
    """
    if lat.rank != 2:
        raise ValueError("splitting needs a rank-2 lattice")
    r1, r2 = lat.basis
    p1, p2 = dot(m, r1), dot(m, r2)
    if p1.denominator != 1 or p2.denominator != 1:
        raise ValueError("covector does not pair integrally with the lattice")
    p1, p2 = int(p1), int(p2)
    g, u, w = _xgcd(p1, p2)
    if g != 1:
        raise ValueError("pairing image is a proper subgroup of the integers")
    e1p = r1.scaled(Fraction(u)) + r2.scaled(Fraction(w))
    e2p = r1.scaled(Fraction(p2)) - r2.scaled(Fraction(p1))
    return CovectorSplit(e1p, e2p)


def points_in_box(lat: Lattice, c1: Rational, c2: Rational) -> list[Vec2]:
    """All lattice points in the box [0, c1] x [0, c2], sorted."""
    if lat.rank != 2:
        raise ValueError("box enumeration needs a rank-2 lattice")
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
    """Image of the subgroup under the coordinate swap."""
    return lattice_from_generators([g.swapped() for g in lat.basis])


def standardize_cone(ray1: Vec2, ray2: Vec2, lat: Lattice) -> Lattice:
    """Transport a lattice along the map sending two cone rays to the axes.

    The rays must be independent; the linear map taking ray1 to (1,0)
    and ray2 to (0,1) is applied to the basis. Helper for callers that
    start from a non-standard strongly convex cone.
    """
    det = ray1.x1 * ray2.x2 - ray1.x2 * ray2.x1
    if det == 0:
        raise ValueError("cone rays must be linearly independent")

    def apply(p: Vec2) -> Vec2:
        return Vec2(
            (ray2.x2 * p.x1 - ray2.x1 * p.x2) / det,
            (-ray1.x2 * p.x1 + ray1.x1 * p.x2) / det,
        )

    return lattice_from_generators([apply(g) for g in lat.basis])


def cyclic_type(lat: Lattice) -> Optional[tuple[int, int, int]]:
    """Canonical quotient type (r, w1, w2) when the quotient is cyclic.

    Requires a full-rank superlattice of the integer plane. Returns None
    for non-cyclic quotients; the identity lattice reports (1, 0, 0).
    The representative is the lexicographically least generator among
    all unit multiples, with weights in [0, r).
    """
    n = index(lat)
    denom, a, b, d = scaled_basis(lat)
    q = denom // d
    # The basis is ((1/p, b), (0, 1/q)) with n = p*q. A generator's first
    # coordinate has exact order p, and a unit multiple moves it to 1/p,
    # so the least first weight is q % n, reached exactly by the points
    # r1 + j*r2 that generate; (x/D, y/D) has order D / gcd(x, y, D).
    w2s = [
        (b + j * d) * n // denom % n
        for j in range(q)
        if math.gcd(a, b + j * d, denom) * n == denom
    ]
    if not w2s:
        return None
    return (n, q % n, min(w2s))


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def sublattices_of_standard(n: int) -> list[Lattice]:
    """Integer sublattices of the standard plane of index n.

    Enumerated by triangular bases ((a, b), (0, d)) with a*d = n and
    0 <= b < d, each subgroup exactly once, ordered by (a, b).
    """
    if n < 1:
        raise ValueError("index must be a positive integer")
    out: list[Lattice] = []
    for a in _divisors(n):
        d = n // a
        for b in range(d):
            out.append(Lattice(2, (vec(a, b), vec(0, d))))
    return out


def superlattices(index_max: int) -> Iterator[Lattice]:
    """All superlattices of the integer plane of index up to the bound.

    Produced as duals of integer sublattices, ordered by index and then
    by the sublattice basis; each superlattice appears exactly once.
    """
    for n in range(1, index_max + 1):
        for sub in sublattices_of_standard(n):
            yield dual(sub)

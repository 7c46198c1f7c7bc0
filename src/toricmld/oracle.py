"""Brute-force ground truth for the discrepancy computations.

Everything here is recomputed from first principles: quotient
representatives by direct enumeration, pairings written out inline,
minima by exhaustive scan of the representatives or of the quotient's
columns. Only the plane vector type is shared with
the rest of the package, so an engine bug cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattices import Lattice, Rational, Vec2

if TYPE_CHECKING:  # type-only; keeps the oracle import-independent
    from .germs import Germ


# Largest index the oracle accepts. `mld_oracle_value` walks at most index
# columns in O(1) memory, but `mld_oracle_lattice` builds one point per
# quotient class, so its time and memory grow with the index; at an
# order of 1,000,003 the walk takes a fraction of a second, the full
# enumeration a few seconds and under 200 MB.
ORACLE_LIMIT = 2_000_000


def _check_limit(order: int) -> None:
    """ValueError when the index `order` is above ORACLE_LIMIT."""
    if order > ORACLE_LIMIT:
        raise ValueError(
            f"index {order} is above the oracle limit of {ORACLE_LIMIT} quotient classes"
        )


def box_representatives(lat: Lattice) -> tuple[int, set[tuple[int, int]]]:
    """Quotient representatives in (0, 1]^2 by direct enumeration.

    The full-enumeration reference: `mld_oracle_lattice` takes every
    minimizer from it, and the tests check `mld_oracle_value`'s walk
    against it.

    Returns (D, points): D is the common denominator of the basis and
    the representatives are the (x/D, y/D) for (x, y) in points. Both
    basis rows are read in full, so no basis shape is assumed. The
    index, 1/|det| = D^2/|det of the scaled rows|, is checked against
    ORACLE_LIMIT before any point is built; ValueError above it.

    The walk takes i*r1 + j*r2 for 0 <= i < n1 and 0 <= j < index/n1,
    n1 the order of r1 modulo Z^2, and so builds exactly index points.
    Every class is reached once: r1 and r2 generate the quotient Q by
    Z^2, r1 generates a subgroup of order n1, and the quotient of Q by
    that subgroup is cyclic, generated by r2, of order index/n1. If
    i*r1 + j*r2 and i'*r1 + j'*r2 share a class, (j - j')*r2 lies in
    Z^2 + Z*r1, so index/n1 divides j - j' and j = j'; then (i - i')*r1
    lies in Z^2, so n1 divides i - i' and i = i'. The index/n1 * n1
    pairs are thus distinct classes, as many as Q has.
    """
    r1, r2 = lat.basis
    coords = (r1.x1, r1.x2, r2.x1, r2.x2)
    denom = math.lcm(*(c.denominator for c in coords))
    a1, b1, a2, b2 = (c.numerator * (denom // c.denominator) for c in coords)
    det = abs(a1 * b2 - b1 * a2)
    order, rem = divmod(denom * denom, det)
    _check_limit(order)
    n1 = math.lcm(r1.x1.denominator, r1.x2.denominator)
    n2 = order // n1
    reps = {
        ((i * a1 + j * a2 - 1) % denom + 1, (i * b1 + j * b2 - 1) % denom + 1)
        for i in range(n1)
        for j in range(n2)
    }
    assert rem == 0 and len(reps) == order
    return denom, reps


def _scaled_psi(psi: Vec2) -> tuple[int, int, int]:
    """(s, c1, c2) with psi = (c1, c2)/s.

    The minimum over the whole open quadrant equals the minimum over the
    (0,1]^2 representatives whenever psi has no negative coordinate;
    that assumption is checked here.
    """
    if psi.x1 < 0 or psi.x2 < 0:
        raise ValueError("oracle needs a componentwise nonnegative psi")
    scale = math.lcm(psi.x1.denominator, psi.x2.denominator)
    return (
        scale,
        psi.x1.numerator * (scale // psi.x1.denominator),
        psi.x2.numerator * (scale // psi.x2.denominator),
    )


def mld_oracle_value(lat: Lattice, psi: Vec2) -> Rational:
    """Minimum of the pairing over open-quadrant points, by a walk over columns.

    Reads the lattice's integer form `lat.hnf` = (D, a, b, d), the basis
    r1 = (a, b)/D, r2 = (0, d)/D, and takes O(1) memory. ValueError
    unless the lattice contains the integer plane, and when the index
    is above ORACLE_LIMIT.

    Proof. An open-quadrant point reduces modulo Z^2, which the lattice
    contains, to a lattice point in (0, 1]^2 whose coordinates are no
    larger, so with psi >= 0 its pairing is no larger: the minimum is
    taken over N ∩ (0, 1]^2. A lattice point i*r1 + j*r2 has first
    coordinate i*a/D, so in (0, 1] it is one of the columns
    i = 1, ..., D/a (a divides D, as e1 lies in the lattice). The points
    of column i are i*r1 + j*r2 for all integers j, with second
    numerator i*b + j*d: every integer congruent to i*b mod d. The least
    positive one is y_i = (i*b - 1) mod d + 1 <= d <= D (d divides D, as
    e2 lies in the lattice), so (i*a, y_i)/D lies in (0, 1]^2, and with
    psi_2 >= 0 no other point of the column pairs below it. Hence, for
    psi = (c1, c2)/s, the minimum is the least c1*a*i + c2*y_i over
    the columns, divided by s*D: D/a <= index integer steps, no set.
    """
    denom, a, b, d = lat.hnf
    if denom % a or denom % d or (denom // a * b) % d:
        raise ValueError("oracle needs a lattice containing the integer plane")
    columns = denom // a
    _check_limit(columns * (denom // d))
    scale, c1, c2 = _scaled_psi(psi)
    step = c1 * a
    least = min(step * i + c2 * ((i * b - 1) % d + 1) for i in range(1, columns + 1))
    return Fraction(least, denom * scale)


def mld_oracle_lattice(lat: Lattice, psi: Vec2) -> tuple[Rational, list[Vec2]]:
    """Minimum of the pairing over open-quadrant points, with all minimizers.

    One pass over the representatives keeps the least pairing and every
    point that attains it. Raises ValueError when the index is above
    ORACLE_LIMIT.
    """
    scale, c1, c2 = _scaled_psi(psi)
    denom, reps = box_representatives(lat)
    # Every representative has coordinates at most denom, so this beats none.
    best = (c1 + c2) * denom + 1
    argmin: list[tuple[int, int]] = []
    for x, y in reps:
        value = c1 * x + c2 * y
        if value < best:
            best, argmin = value, [(x, y)]
        elif value == best:
            argmin.append((x, y))
    argmin.sort()
    return Fraction(best, denom * scale), [
        Vec2(Fraction(x, denom), Fraction(y, denom)) for x, y in argmin
    ]


def mld_oracle(germ: "Germ") -> tuple[Rational, list[Vec2]]:
    """Exhaustive minimal log discrepancy of a germ."""
    psi = Vec2(1 - germ.b1, 1 - germ.b2)
    return mld_oracle_lattice(germ.lattice, psi)


def tlc_oracle(lat: Lattice, psi: Vec2, t: Rational) -> bool:
    """True iff no open-quadrant subgroup point pairs below t with psi."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    return mld_oracle_value(lat, psi) >= t


def lawrence_oracle(lat: Lattice, p: int, q: int) -> bool:
    """True iff the subgroup avoids the open simplex x,y > 0, x+y < p/q."""
    if p < 1 or q < 1:
        raise ValueError("simplex size must be a positive ratio of integers")
    return tlc_oracle(lat, Vec2(Fraction(1), Fraction(1)), Fraction(p, q))

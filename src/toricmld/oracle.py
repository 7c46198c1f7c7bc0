"""Brute-force ground truth for the discrepancy computations.

Everything here is recomputed from first principles: the quotient by
the integer plane is walked column by column off the lattice's Hermite
normal form, pairings are written out inline and minima are taken by
scanning the columns, in O(1) memory beyond the minimizers returned.
The value walk stops at the first column whose lower bound cannot beat
the least pairing so far; the minimizer listing scans every column.
Only the plane vector type is shared with the rest of the package, so
an engine bug cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattices import Lattice, Rational, Vec2

if TYPE_CHECKING:  # type-only; keeps the oracle import-independent
    from .germs import Germ


# Largest index the oracle accepts, checked before any walk. Both
# oracles walk at most index columns in O(1) memory besides the
# minimizers returned; the value walk often stops after a few columns,
# but a full walk at an order of 1,000,003 takes a fraction of a second.
ORACLE_LIMIT = 2_000_000


def _columns(lat: Lattice, psi: tuple[int, int, int]) -> tuple[int, int, int, int, int]:
    """(D, a, b, d, D/a) for the walk over the quotient's columns, at psi = (c1, c2)/s.

    ValueError unless the lattice contains the integer plane, when its
    index (D/a)*(D/d) is above ORACLE_LIMIT, and unless psi has no
    negative coordinate: the minimum over the whole open quadrant equals
    the minimum over the (0,1]^2 representatives only then.
    """
    denom, a, b, d = lat.hnf
    if denom % a or denom % d or (denom // a * b) % d:
        raise ValueError("oracle needs a lattice containing the integer plane")
    columns = denom // a
    order = columns * (denom // d)
    if order > ORACLE_LIMIT:
        raise ValueError(
            f"index {order} is above the oracle limit of {ORACLE_LIMIT} quotient classes"
        )
    if psi[1] < 0 or psi[2] < 0:
        raise ValueError("oracle needs a componentwise nonnegative psi")
    return denom, a, b, d, columns


def _scaled_psi(psi: Vec2) -> tuple[int, int, int]:
    """(s, c1, c2) with psi = (c1, c2)/s."""
    scale = math.lcm(psi.x1.denominator, psi.x2.denominator)
    return (
        scale,
        psi.x1.numerator * (scale // psi.x1.denominator),
        psi.x2.numerator * (scale // psi.x2.denominator),
    )


def mld_oracle_scaled(lat: Lattice, psi: tuple[int, int, int]) -> tuple[int, int]:
    """`mld_oracle_value` in integers: psi = (c1, c2)/s with s > 0, the value num/den, den > 0.

    The pair is not reduced; compare it by cross-multiplying.
    """
    denom, a, b, d, columns = _columns(lat, psi)
    scale, c1, c2 = psi
    step = c1 * a
    rise = b % d
    y = (b - 1) % d + 1
    least = step + c2 * y
    # Column i pairs to at least step*i + c2, so once step*i >= least - c2
    # no column from i on pairs below least (the cutoff in mld_oracle_value).
    bar = least - c2
    for i in range(2, columns + 1):
        x = step * i
        if x >= bar:
            break
        y += rise
        if y > d:
            y -= d
        value = x + c2 * y
        if value < least:
            least = value
            bar = value - c2
    return least, denom * scale


def mld_oracle_value(lat: Lattice, psi: Vec2) -> Rational:
    """Minimum of the pairing over open-quadrant points, by a walk over columns.

    Reads the lattice's integer form `lat.hnf` = (D, a, b, d), the basis
    r1 = (a, b)/D, r2 = (0, d)/D, and takes O(1) memory. ValueError
    unless the lattice contains the integer plane, when the index
    is above ORACLE_LIMIT, and unless psi is componentwise nonnegative.

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
    The walk steps y_i to y_{i+1} by adding b mod d and taking d off a
    sum above d, which keeps it in 1..d and congruent to (i+1)*b.

    Cutoff. As y_i >= 1 and c2 >= 0, column i pairs to at least
    c1*a*i + c2, and with c1 >= 0 that bound never falls as i grows.
    So once the least pairing of columns 1..i-1 is at most c1*a*i + c2,
    no column from i on pairs below it, and the walk stops at the first
    such i. With c1 = 0 it stops once the least pairing is c2, at the
    first column with y_i = 1; with psi = 0 it stops after column 1 with
    the value 0. The walk visits all D/a columns only when the bound
    stays below the least pairing so far, as when the pairing falls
    along the columns faster than the bound rises.
    """
    return Fraction(*mld_oracle_scaled(lat, _scaled_psi(psi)))


def mld_oracle_lattice(lat: Lattice, psi: Vec2) -> tuple[Rational, list[Vec2]]:
    """Minimum of the pairing over open-quadrant points, with all minimizers.

    The walk over columns of `mld_oracle_value`, with the same errors
    but without its cutoff, keeping every column that attains the least
    pairing. The minimizers in (0, 1]^2, in lexicographic order, are the
    lowest point (i*a, y_i)/D of each such column, and with psi_2 = 0
    every point (i*a, y_i + k*d)/D <= (1, 1) of it: along a column the
    pairing then stays constant, and otherwise it grows with k.
    """
    scaled = _scaled_psi(psi)
    denom, a, b, d, columns = _columns(lat, scaled)
    scale, c1, c2 = scaled
    step = c1 * a
    # Every column's lowest point has coordinates at most denom, so this beats none.
    best = (c1 + c2) * denom + 1
    argmin: list[tuple[int, int]] = []
    for i in range(1, columns + 1):
        y = (i * b - 1) % d + 1
        value = step * i + c2 * y
        if value < best:
            best, argmin = value, [(i * a, y)]
        elif value == best:
            argmin.append((i * a, y))
    if not c2:
        argmin = [(x, y) for x, low in argmin for y in range(low, denom + 1, d)]
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

"""Brute-force ground truth for the discrepancy computations.

Everything here is recomputed from first principles: quotient
representatives by direct enumeration, pairings written out inline,
minima by exhaustive scan. Only the plane vector type is shared with
the rest of the package, so an engine bug cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattices import Lattice, Rational, Vec2

if TYPE_CHECKING:  # type-only; keeps the oracle import-independent
    from .germs import Germ


# Largest index the oracle enumerates. Its representative set holds one
# point per quotient class, so time and memory grow with the index; an
# order of 1,000,003 takes a few seconds and under 200 MB.
ORACLE_LIMIT = 2_000_000


def _box_representatives(lat: Lattice) -> tuple[int, set[tuple[int, int]]]:
    """Quotient representatives in (0, 1]^2 by direct enumeration.

    Returns (D, points): D is the common denominator of the basis and
    the representatives are the (x/D, y/D) for (x, y) in points. Both
    basis rows are read in full, so no basis shape is assumed. The
    index, 1/|det| = D^2/|det of the scaled rows|, is checked against
    ORACLE_LIMIT before any point is built; ValueError above it.
    """
    r1, r2 = lat.basis
    coords = (r1.x1, r1.x2, r2.x1, r2.x2)
    denom = math.lcm(*(c.denominator for c in coords))
    a1, b1, a2, b2 = (c.numerator * (denom // c.denominator) for c in coords)
    det = abs(a1 * b2 - b1 * a2)
    order, rem = divmod(denom * denom, det)
    if order > ORACLE_LIMIT:
        raise ValueError(
            f"index {order} is above the oracle limit of {ORACLE_LIMIT} quotient classes"
        )
    n1 = math.lcm(r1.x1.denominator, r1.x2.denominator)
    n2 = math.lcm(r2.x1.denominator, r2.x2.denominator)
    reps = {
        ((i * a1 + j * a2 - 1) % denom + 1, (i * b1 + j * b2 - 1) % denom + 1)
        for i in range(n1)
        for j in range(n2)
    }
    assert rem == 0 and len(reps) == order
    return denom, reps


def _scaled_pairing(lat: Lattice, psi: Vec2) -> tuple[int, int, int, int, set[tuple[int, int]]]:
    """(D, s, c1, c2, points): the representative (x/D, y/D) pairs to (c1*x + c2*y)/(D*s) with psi.

    The minimum over the whole open quadrant equals the minimum over the
    (0,1]^2 representatives whenever psi has no negative coordinate;
    that assumption is checked here.
    """
    if psi.x1 < 0 or psi.x2 < 0:
        raise ValueError("oracle needs a componentwise nonnegative psi")
    denom, reps = _box_representatives(lat)
    scale = math.lcm(psi.x1.denominator, psi.x2.denominator)
    c1 = psi.x1.numerator * (scale // psi.x1.denominator)
    c2 = psi.x2.numerator * (scale // psi.x2.denominator)
    return denom, scale, c1, c2, reps


def mld_oracle_value(lat: Lattice, psi: Vec2) -> Rational:
    """Minimum of the pairing over open-quadrant points, without the minimizers.

    Raises ValueError when the index is above ORACLE_LIMIT.
    """
    denom, scale, c1, c2, reps = _scaled_pairing(lat, psi)
    return Fraction(min(c1 * x + c2 * y for x, y in reps), denom * scale)


def mld_oracle_lattice(lat: Lattice, psi: Vec2) -> tuple[Rational, list[Vec2]]:
    """Minimum of the pairing over open-quadrant points, with all minimizers.

    One pass over the representatives keeps the least pairing and every
    point that attains it. Raises ValueError when the index is above
    ORACLE_LIMIT.
    """
    denom, scale, c1, c2, reps = _scaled_pairing(lat, psi)
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

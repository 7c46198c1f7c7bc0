"""Exact classification of two-dimensional toric log germs by minimal log discrepancy.

Everything is computed in exact rational arithmetic. The package has
three layers: a lattice core (full-rank lattices of the rational plane
in a canonical integer form), a classification engine that produces
machine-checkable certificates for threshold questions, and an
independent brute-force oracle used to re-check every produced
certificate.

The package exports the library of the README and the classes its
results are built from; everything else is imported from its module.
"""

from .certify import (
    CaseA,
    CaseB,
    Contained,
    EqualsIntersection,
    Hit,
    NotTLC,
    classify_tlc,
    lawrence,
    verify_certificate,
)
from .errors import VerificationFailure
from .geometry import Complement, bounded_complement
from .germs import Germ, germ_from_quotient_type, mld, mld_argmin
from .lattices import Lattice, Vec2
from .oracle import mld_oracle

__version__ = "0.1.0"

__all__ = [
    "CaseA",
    "CaseB",
    "Complement",
    "Contained",
    "EqualsIntersection",
    "Germ",
    "Hit",
    "Lattice",
    "NotTLC",
    "Vec2",
    "VerificationFailure",
    "bounded_complement",
    "classify_tlc",
    "germ_from_quotient_type",
    "lawrence",
    "mld",
    "mld_argmin",
    "mld_oracle",
    "verify_certificate",
]

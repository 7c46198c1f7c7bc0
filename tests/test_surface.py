"""The package's public surface: the README's Library section and the classes of its results."""

import inspect
from fractions import Fraction
from pathlib import Path

import toricmld
from toricmld import CaseB, Complement, Hit

README = Path(__file__).resolve().parent.parent / "README.md"

SURFACE = {
    "germ_from_quotient_type",
    "mld",
    "mld_argmin",
    "classify_tlc",
    "verify_certificate",
    "mld_oracle",
    "lawrence",
    "bounded_complement",
    "Germ",
    "Lattice",
    "Vec2",
    "CaseA",
    "CaseB",
    "NotTLC",
    "Contained",
    "EqualsIntersection",
    "Hit",
    "Complement",
    "VerificationFailure",
}


def library_block() -> str:
    """The Python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```\n", 1)[0]


def test_package_exports_exactly_the_library():
    assert len(toricmld.__all__) == len(SURFACE) == 19
    assert set(toricmld.__all__) == SURFACE
    for name in SURFACE:
        assert getattr(toricmld, name).__name__ == name
    # Nothing else is re-exported: apart from the surface, the package
    # namespace holds only its submodules and dunder metadata.
    exported = {
        name
        for name, value in vars(toricmld).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == SURFACE


def test_readme_library_block_runs_as_its_comments_say():
    block = library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    germ, cert = namespace["germ"], namespace["cert"]
    mld, mld_argmin = namespace["mld"], namespace["mld_argmin"]
    lawrence, bounded_complement = namespace["lawrence"], namespace["bounded_complement"]
    fifth = Fraction(1, 5)
    # Each comment, as written in the README, then the value it states.
    assert "mld(germ)                                        # Fraction(2, 5)" in block
    assert mld(germ) == Fraction(2, 5)
    assert "mld_argmin(germ)                                 # (2/5, [Vec2(1/5, 1/5)])" in block
    assert mld_argmin(germ) == (Fraction(2, 5), [(fifth, fifth)])
    assert "# CaseB((1,2,3), (1,3,2), (1,5), (1,5))" in block
    assert cert == CaseB((1, 2, 3), (1, 3, 2), (1, 5), (1, 5))
    assert "lawrence(germ.lattice, 1, 2)                     # Hit(Vec2(1/5, 1/5))" in block
    hit = lawrence(germ.lattice, 1, 2)
    assert type(hit) is Hit and hit == Hit((fifth, fifth))  # Contained is a 1-tuple too
    assert (
        "bounded_complement(germ)                         "
        "# Complement(n=3, boundary=(1/3, 0), witness (2, 3))"
    ) in block
    complement = bounded_complement(germ)
    assert type(complement) is Complement
    assert complement == Complement(3, (Fraction(1, 3), 0), (2, 3))

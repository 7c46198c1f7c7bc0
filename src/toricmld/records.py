"""JSON record schema for germs, certificates, and derived objects.

Every rational is serialized as the string "p/q" (or "n" for
integers); vectors as two-element arrays of such strings; lattices as
arrays of basis rows. Dict key order is fixed by construction, so
serialized output is byte-stable. Parsing reconstructs lattices through
the canonical constructor, which makes records robust against
reordered or redundant generator rows, and rejects a lattice that misses
the integer plane, which every germ lattice contains, a boundary
coefficient outside [0, 1], a threshold or ratio p/q that is not
positive, and an integer field that is not a JSON integer.

`record_to_json` encodes one classification record as a dict; a sweep
writes its records through `record_lines`, which builds the text of
each part once at the level it depends on (t per sweep, the boundary
per pair, the lattice rows, `type` label and series list per lattice)
and formats only the mld and the certificate per record. Decoding reads
each rational literal through a dict from literal text to reduced pair,
which `verify` keeps for a whole run, so each distinct literal is
parsed once per run.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .certify import (
    CaseA,
    CaseB,
    Certificate,
    ClassifiedGerm,
    Contained,
    EqualsIntersection,
    Hit,
    LawrenceResult,
    NotTLC,
)
from .geometry import Complement
from .germs import CaseData, CaseTag, Germ, boundary_pair
from .lattices import (
    Lattice,
    Ratio,
    Rational,
    Scaled,
    Vec2,
    _lattice_from_rows,
    cyclic_type,
    format_ratio,
    format_rational,
    index,
    parse_ratio,
    parse_rational,
    positive_threshold,
    reduced,
    simplex_ratio,
)


def _json_int(value: Any, field: str) -> int:
    """A JSON integer field; ValueError for a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer: {value!r}")
    return value


def type_label(lat: Lattice) -> dict:
    """The `type` field of a lattice's record: its cyclic type, or no field."""
    ty = cyclic_type(lat)
    return {} if ty is None else {"type": list(ty)}


def type_label_agrees(data: dict, label: dict) -> bool:
    """Whether the `type` label of a record, or of its germ, is label, a `type_label`."""
    labelled = data.get("germ", data)
    return {key: labelled[key] for key in ("type",) if key in labelled} == label


def vec_to_json(v: Vec2) -> list[str]:
    return [format_rational(v.x1), format_rational(v.x2)]


def _pair(data: Any) -> Any:
    """data itself when it is a two-element array; ValueError otherwise."""
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"not a vector: {data!r}")
    return data


def vec_from_json(data: Any) -> Vec2:
    x1, x2 = _pair(data)
    return Vec2(parse_rational(x1), parse_rational(x2))


def _scaled_to_json(v: Scaled) -> list[str]:
    """The vector (x, y)/s of (s, x, y), each coordinate reduced."""
    s, x, y = v
    return [format_ratio(x, s), format_ratio(y, s)]


def _scaled_from_json(data: Any, literals: dict[str, Ratio]) -> Scaled:
    """A two-element array of rational literals as (s, x, y), s the least common denominator."""
    (n1, d1), (n2, d2) = (_reduced(x, literals) for x in _pair(data))
    s = d1 // math.gcd(d1, d2) * d2
    return s, n1 * (s // d1), n2 * (s // d2)


def lattice_to_json(lat: Lattice) -> list[list[str]]:
    """The canonical basis ((a/D, b/D), (0, d/D)) of `lat.hnf`, each entry reduced."""
    denom, a, b, d = lat.hnf
    return [[format_ratio(a, denom), format_ratio(b, denom)], ["0", format_ratio(d, denom)]]


def lattice_from_json(data: Any, literals: Optional[dict[str, Ratio]] = None) -> Lattice:
    """The lattice generated by the rows, read as integers over their common denominator.

    The row literals are read through `literals` (see `_reduced`).
    ValueError unless the rows are rational vectors that span the plane
    and generate a lattice containing the integer plane.
    """
    if not isinstance(data, list):
        raise ValueError(f"not a lattice: {data!r}")
    if literals is None:
        literals = {}
    rows = [(_reduced(x1, literals), _reduced(x2, literals)) for x1, x2 in map(_pair, data)]
    scale = math.lcm(*(den for row in rows for _, den in row))
    lat = _lattice_from_rows(
        [(n1 * (scale // d1), n2 * (scale // d2)) for (n1, d1), (n2, d2) in rows], scale
    )
    index(lat)  # raises ValueError unless the lattice contains the integer plane
    return lat


def germ_to_json(germ: Germ) -> dict:
    """The germ's record: its lattice rows, its boundary and its `type` label."""
    return {
        "lattice": lattice_to_json(germ.lattice),
        "boundary": [format_rational(germ.b1), format_rational(germ.b2)],
        **type_label(germ.lattice),
    }


def _reduced(text: Any, literals: dict[str, Ratio]) -> Ratio:
    """A "p/q" or "n" literal as a reduced pair; ValueError as `parse_rational`.

    `literals` maps literal text to its reduced pair: a string is parsed
    on its first reading and looked up after that. Only well-formed
    string literals are stored, so a malformed one raises on every
    reading.
    """
    if not isinstance(text, str):
        parse_ratio(text)  # raises, naming the value
    pair = literals.get(text)
    if pair is None:
        pair = literals[text] = reduced(*parse_ratio(text))
    return pair


def _germ_fields(
    data: Any, lattice: Optional[Lattice], literals: dict[str, Ratio]
) -> tuple[Lattice, Ratio, Ratio]:
    """(lattice, b1, b2) of a germ record, the boundary as reduced pairs.

    `lattice`, when given, is `data["lattice"]` already decoded. The
    boundary literals are read before the lattice and checked against
    [0, 1] after it.
    """
    if not isinstance(data, dict) or "lattice" not in data or "boundary" not in data:
        raise ValueError(f"not a germ record: {data!r}")
    b1, b2 = (_reduced(x, literals) for x in _pair(data["boundary"]))
    if lattice is None:
        lattice = lattice_from_json(data["lattice"], literals)
    if not (0 <= b1[0] <= b1[1] and 0 <= b2[0] <= b2[1]):
        boundary_pair(Fraction(*b1), Fraction(*b2))  # raises, naming the coefficient
    return lattice, b1, b2


def germ_from_json(data: Any) -> Germ:
    """The germ of a record."""
    lattice, b1, b2 = _germ_fields(data, None, {})
    return Germ(lattice, Fraction(*b1), Fraction(*b2))


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, CaseA):
        return {"case": "a", "m": _scaled_to_json(cert.m)}
    if isinstance(cert, CaseB):
        return {
            "case": "b",
            "m1": _scaled_to_json(cert.m1),
            "m2": _scaled_to_json(cert.m2),
            "t1": format_ratio(*cert.t1),
            "t2": format_ratio(*cert.t2),
        }
    if isinstance(cert, NotTLC):
        return {"case": "not_tlc", "e": _scaled_to_json(cert.e), "value": format_ratio(*cert.value)}
    raise ValueError(f"not a certificate: {cert!r}")


def certificate_from_json(data: Any, literals: Optional[dict[str, Ratio]] = None) -> Certificate:
    """The certificate of a record, straight to integers; no rational is built.

    Each covector or point is read as (s, x, y) with s its least common
    denominator, each weight or value as a reduced pair, so a record's
    covector may be non-integral, negative or zero and still reaches the
    verifier, which names what is wrong with it. Literals are read
    through `literals` (see `_reduced`).
    """
    if not isinstance(data, dict):
        raise ValueError(f"not a certificate record: {data!r}")
    if literals is None:
        literals = {}
    kind = data.get("case")
    if kind == "a":
        return CaseA(_scaled_from_json(data["m"], literals))
    if kind == "b":
        return CaseB(
            _scaled_from_json(data["m1"], literals),
            _scaled_from_json(data["m2"], literals),
            _reduced(data["t1"], literals),
            _reduced(data["t2"], literals),
        )
    if kind == "not_tlc":
        return NotTLC(_scaled_from_json(data["e"], literals), _reduced(data["value"], literals))
    raise ValueError(f"unknown certificate case: {kind!r}")


def case_data_to_json(data: CaseData, lat: Lattice) -> dict:
    """The case analysis of `lat` as the `case_data` field of `classify`."""
    denom = lat.hnf[0]

    def point(v: tuple[int, int]) -> list[str]:
        return [format_ratio(v[0], denom), format_ratio(v[1], denom)]

    out: dict = {
        "tag": data.tag.value,
        "gamma": format_ratio(*data.gamma),
        "v1": [str(x) for x in data.v1],
        "mld": format_ratio(*data.mld),
    }
    if data.tag is CaseTag.SPLIT:
        out["e1p"] = point(data.e1p)
        out["e2p"] = point(data.e2p)
        out["alpha"] = format_ratio(*data.alpha)
        out["beta"] = "inf" if data.beta is None else format_ratio(*data.beta)
        out["psi_prime"] = format_ratio(*data.psi_prime)
        out["v2"] = [str(x) for x in data.v2]
        out["lambda_prime"] = format_ratio(*data.lambda_prime)
        out["q_min"] = data.q_min
        if data.c is not None:
            out["c"] = format_ratio(*data.c)
    return out


def record_to_json(record: ClassifiedGerm) -> dict:
    """The record's JSON object; `record_lines` writes the same as text."""
    return {
        "germ": germ_to_json(record.germ),
        "t": format_rational(record.t),
        "mld": format_ratio(*record.value),
        "certificate": certificate_to_json(record.certificate),
        "series": [list(m) for m in record.series],
    }


def _scaled_text(v: Scaled) -> str:
    """`_scaled_to_json` of v as JSON text."""
    s, x, y = v
    return '["%s", "%s"]' % (format_ratio(x, s), format_ratio(y, s))


def _certificate_text(cert: Certificate) -> str:
    """`certificate_to_json` of cert as JSON text."""
    if isinstance(cert, CaseA):
        return '{"case": "a", "m": %s}' % _scaled_text(cert.m)
    if isinstance(cert, CaseB):
        return '{"case": "b", "m1": %s, "m2": %s, "t1": "%s", "t2": "%s"}' % (
            _scaled_text(cert.m1),
            _scaled_text(cert.m2),
            format_ratio(*cert.t1),
            format_ratio(*cert.t2),
        )
    if isinstance(cert, NotTLC):
        return '{"case": "not_tlc", "e": %s, "value": "%s"}' % (
            _scaled_text(cert.e),
            format_ratio(*cert.value),
        )
    raise ValueError(f"not a certificate: {cert!r}")


def _lattice_text(lat: Lattice) -> tuple[str, str]:
    """The text of `lattice_to_json` and of `type_label`, as they stand in a germ record."""
    (a, b), (c, d) = lattice_to_json(lat)
    ty = cyclic_type(lat)
    label = "" if ty is None else ', "type": [%d, %d, %d]' % ty
    return '[["%s", "%s"], ["%s", "%s"]]' % (a, b, c, d), label


def _series_text(series: list[tuple[int, int]]) -> str:
    return "[%s]" % ", ".join(["[%d, %d]" % m for m in series])


def record_lines(records: Iterable[ClassifiedGerm]) -> Iterator[str]:
    """`dumps(record_to_json(r)) + "\\n"` of each record, from text encoded once per part.

    t, a lattice's rows and `type` label, and a series list are each
    formatted once per run of records that share them, and each boundary
    pair once; the mld and the certificate are formatted per record. A
    sweep shares one t, one object per boundary coefficient, and one
    lattice and series list per form, so it formats t once, each pair
    once and each lattice once. Parts are matched by identity, and the
    boundary text is keyed by the ids of its coefficients, whose objects
    the entry holds alive; no `Fraction` is hashed.
    """
    t = lat = series = None
    t_text = head = middle = tail = ""
    boundaries: dict[tuple[int, int], tuple[Rational, Rational, str]] = {}
    for record in records:
        germ = record.germ
        if record.t is not t:
            t, lat = record.t, None
            t_text = format_rational(t)
        if germ.lattice is not lat:
            lat = germ.lattice
            rows, label = _lattice_text(lat)
            head = '{"germ": {"lattice": %s, "boundary": ' % rows
            middle = '%s}, "t": "%s", "mld": "' % (label, t_text)
        if record.series is not series:
            series = record.series
            tail = ', "series": %s}\n' % _series_text(series)
        b1, b2 = germ.b1, germ.b2
        entry = boundaries.get((id(b1), id(b2)))
        if entry is None:
            text = '["%s", "%s"]' % (format_rational(b1), format_rational(b2))
            entry = boundaries[id(b1), id(b2)] = (b1, b2, text)
        yield "".join(
            (
                head,
                entry[2],
                middle,
                format_ratio(*record.value),
                '", "certificate": ',
                _certificate_text(record.certificate),
                tail,
            )
        )


class RecordFields(NamedTuple):
    """A classification record read in integers; `record_from_json` makes it a `ClassifiedGerm`."""

    lattice: Lattice
    boundary: tuple[Ratio, Ratio]
    t: Ratio
    mld: Ratio
    certificate: Certificate
    series: list[tuple[int, int]]


def record_fields(
    data: Any, lattice: Optional[Lattice] = None, literals: Optional[dict[str, Ratio]] = None
) -> RecordFields:
    """The fields of a classification record, each rational a reduced integer pair.

    `lattice`, when given, is `data["germ"]["lattice"]` already decoded,
    and literals are read through `literals` (see `_reduced`), which
    `verify` keeps for a whole run.
    The fields decode in the order series, germ (boundary literals,
    lattice, boundary range), t, mld, certificate, and the first that
    fails raises ValueError, or KeyError for a missing key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"not a classification record: {data!r}")
    series = []
    for m in data["series"]:
        if not isinstance(m, (list, tuple)) or len(m) != 2:
            raise ValueError(f"not a series id: {m!r}")
        i, j = m
        if not type(i) is type(j) is int:
            _json_int(i, "series id"), _json_int(j, "series id")  # raises
        series.append((i, j))
    if literals is None:
        literals = {}
    lattice, b1, b2 = _germ_fields(data["germ"], lattice, literals)
    t = _reduced(data["t"], literals)
    if t[0] <= 0:
        positive_threshold(Fraction(*t))  # raises
    mld = _reduced(data["mld"], literals)
    certificate = certificate_from_json(data["certificate"], literals)
    return RecordFields(lattice, (b1, b2), t, mld, certificate, series)


def record_from_json(data: Any) -> ClassifiedGerm:
    """The classification record, from `record_fields`."""
    fields = record_fields(data)
    (n1, d1), (n2, d2) = fields.boundary
    return ClassifiedGerm(
        Germ(fields.lattice, Fraction(n1, d1), Fraction(n2, d2)),
        Fraction(*fields.t),
        fields.mld,
        fields.certificate,
        fields.series,
    )


def lawrence_result_to_json(result: LawrenceResult) -> dict:
    if isinstance(result, Contained):
        return {"kind": "contained", "m": vec_to_json(result.m)}
    if isinstance(result, EqualsIntersection):
        return {
            "kind": "equals_intersection",
            "m1": vec_to_json(result.m1),
            "m2": vec_to_json(result.m2),
            "k1": result.k1,
            "k2": result.k2,
        }
    if isinstance(result, Hit):
        return {"kind": "hit", "e": vec_to_json(result.e)}
    raise ValueError(f"not a simplex-avoidance result: {result!r}")


def lawrence_result_from_json(data: Any) -> LawrenceResult:
    if not isinstance(data, dict):
        raise ValueError(f"not a simplex-avoidance record: {data!r}")
    kind = data.get("kind")
    if kind == "contained":
        return Contained(vec_from_json(data["m"]))
    if kind == "equals_intersection":
        return EqualsIntersection(
            vec_from_json(data["m1"]),
            vec_from_json(data["m2"]),
            _json_int(data["k1"], "k1"),
            _json_int(data["k2"], "k2"),
        )
    if kind == "hit":
        return Hit(vec_from_json(data["e"]))
    raise ValueError(f"unknown simplex-avoidance kind: {kind!r}")


def lawrence_record_to_json(lat: Lattice, p: int, q: int, result: LawrenceResult) -> dict:
    return {
        "lattice": lattice_to_json(lat),
        **type_label(lat),
        "p": p,
        "q": q,
        "lawrence": lawrence_result_to_json(result),
    }


def lawrence_record_from_json(data: Any) -> tuple[Lattice, int, int, LawrenceResult]:
    """(lattice, p, q, result) of a simplex-avoidance record, p/q checked by `simplex_ratio`."""
    lat = lattice_from_json(data["lattice"])
    p, q = _json_int(data["p"], "p"), _json_int(data["q"], "q")
    simplex_ratio(p, q)
    return lat, p, q, lawrence_result_from_json(data["lawrence"])


def complement_to_json(comp: Complement) -> dict:
    return {
        "n": comp.n,
        "boundary": [format_rational(comp.boundary[0]), format_rational(comp.boundary[1])],
        "witness": vec_to_json(comp.witness_m),
    }


def complement_from_json(data: Any) -> Complement:
    if not isinstance(data, dict):
        raise ValueError(f"not a complement record: {data!r}")
    return Complement(
        _json_int(data["n"], "n"),
        tuple(vec_from_json(data["boundary"])),
        vec_from_json(data["witness"]),
    )


def complement_record_to_json(
    germ: Germ, comp: Complement, p: Optional[int] = None, q: Optional[int] = None
) -> dict:
    ratio = {} if p is None or q is None else {"p": p, "q": q}
    return {"germ": germ_to_json(germ), **ratio, "complement": complement_to_json(comp)}


def complement_record_from_json(data: Any) -> tuple[Germ, Complement, Optional[Rational]]:
    """(germ, complement, target p/q) of a complement record; no target for a bounded one."""
    target = None
    if "p" in data or "q" in data:
        target = simplex_ratio(_json_int(data["p"], "p"), _json_int(data["q"], "q"))
    return germ_from_json(data["germ"]), complement_from_json(data["complement"]), target


def dumps(data: dict) -> str:
    """One-line JSON with stable key order (insertion order)."""
    return json.dumps(data)  # the default separators, through json's cached encoder


def germ_label(germ: Germ) -> str:
    """Short human-readable lattice label for tables."""
    ty = cyclic_type(germ.lattice)
    if ty is None:
        return f"index {index(germ.lattice)}"
    r, w1, w2 = ty
    if r == 1:
        return "smooth"
    return f"1/{r}({w1},{w2})"


def record_table_row(record: ClassifiedGerm) -> list[str]:
    """Columns: type, lattice, boundary, mld, case, series."""
    lattice_str = ";".join(
        f"({format_rational(r.x1)},{format_rational(r.x2)})" for r in record.germ.lattice.basis
    )
    boundary_str = f"({format_rational(record.germ.b1)},{format_rational(record.germ.b2)})"
    series_str = " ".join(f"({m1},{m2})" for m1, m2 in record.series)
    return [
        germ_label(record.germ),
        lattice_str,
        boundary_str,
        format_ratio(*record.value),
        certificate_to_json(record.certificate)["case"],
        series_str,
    ]


TABLE_COLUMNS = ["type", "lattice", "boundary", "mld", "case", "series"]

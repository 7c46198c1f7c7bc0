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
"""

from __future__ import annotations

import json
from typing import Any, Optional

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
    Rational,
    Vec2,
    cyclic_type,
    format_rational,
    index,
    lattice_from_generators,
    parse_rational,
    positive_threshold,
    simplex_ratio,
)


def _json_int(value: Any, field: str) -> int:
    """A JSON integer field; ValueError for a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer: {value!r}")
    return value


def _type_label(lat: Lattice) -> dict:
    """The `type` field of a lattice's record: its cyclic type, or no field."""
    ty = cyclic_type(lat)
    return {} if ty is None else {"type": list(ty)}


def type_label_agrees(data: dict, lat: Lattice) -> bool:
    """Whether the `type` label of a record, or of its germ, is `_type_label` of lat."""
    labelled = data.get("germ", data)
    return {key: labelled[key] for key in ("type",) if key in labelled} == _type_label(lat)


def vec_to_json(v: Vec2) -> list[str]:
    return [format_rational(v.x1), format_rational(v.x2)]


def vec_from_json(data: Any) -> Vec2:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"not a vector: {data!r}")
    return Vec2(parse_rational(data[0]), parse_rational(data[1]))


def lattice_to_json(lat: Lattice) -> list[list[str]]:
    return [vec_to_json(row) for row in lat.basis]


def lattice_from_json(data: Any) -> Lattice:
    if not isinstance(data, list):
        raise ValueError(f"not a lattice: {data!r}")
    lat = lattice_from_generators([vec_from_json(row) for row in data])
    index(lat)  # raises ValueError unless the lattice contains the integer plane
    return lat


def germ_to_json(germ: Germ) -> dict:
    return {
        "lattice": lattice_to_json(germ.lattice),
        "boundary": [format_rational(germ.b1), format_rational(germ.b2)],
        **_type_label(germ.lattice),
    }


def germ_from_json(data: Any) -> Germ:
    if not isinstance(data, dict) or "lattice" not in data or "boundary" not in data:
        raise ValueError(f"not a germ record: {data!r}")
    b1, b2 = vec_from_json(data["boundary"])
    return Germ(lattice_from_json(data["lattice"]), *boundary_pair(b1, b2))


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, CaseA):
        return {"case": "a", "m": vec_to_json(cert.m)}
    if isinstance(cert, CaseB):
        return {
            "case": "b",
            "m1": vec_to_json(cert.m1),
            "m2": vec_to_json(cert.m2),
            "t1": format_rational(cert.t1),
            "t2": format_rational(cert.t2),
        }
    if isinstance(cert, NotTLC):
        return {"case": "not_tlc", "e": vec_to_json(cert.e), "value": format_rational(cert.value)}
    raise ValueError(f"not a certificate: {cert!r}")


def certificate_from_json(data: Any) -> Certificate:
    if not isinstance(data, dict):
        raise ValueError(f"not a certificate record: {data!r}")
    kind = data.get("case")
    if kind == "a":
        return CaseA(vec_from_json(data["m"]))
    if kind == "b":
        return CaseB(
            vec_from_json(data["m1"]),
            vec_from_json(data["m2"]),
            parse_rational(data["t1"]),
            parse_rational(data["t2"]),
        )
    if kind == "not_tlc":
        return NotTLC(vec_from_json(data["e"]), parse_rational(data["value"]))
    raise ValueError(f"unknown certificate case: {kind!r}")


def case_data_to_json(data: CaseData) -> dict:
    out: dict = {
        "tag": data.tag.value,
        "gamma": format_rational(data.gamma),
        "v1": vec_to_json(data.v1),
        "mld": format_rational(data.mld),
    }
    if data.tag is CaseTag.SPLIT:
        out["e1p"] = vec_to_json(data.e1p)
        out["e2p"] = vec_to_json(data.e2p)
        out["alpha"] = format_rational(data.alpha)
        out["beta"] = "inf" if data.beta is None else format_rational(data.beta)
        out["psi_prime"] = format_rational(data.psi_prime)
        out["v2"] = vec_to_json(data.v2)
        out["lambda_prime"] = format_rational(data.lambda_prime)
        out["q_min"] = data.q_min
        if data.c is not None:
            out["c"] = format_rational(data.c)
    return out


def record_to_json(record: ClassifiedGerm) -> dict:
    return {
        "germ": germ_to_json(record.germ),
        "t": format_rational(record.t),
        "mld": format_rational(record.mld),
        "certificate": certificate_to_json(record.certificate),
        "series": [list(m) for m in record.series],
    }


def record_from_json(data: Any) -> ClassifiedGerm:
    if not isinstance(data, dict):
        raise ValueError(f"not a classification record: {data!r}")
    series = []
    for m in data["series"]:
        if not isinstance(m, (list, tuple)) or len(m) != 2:
            raise ValueError(f"not a series id: {m!r}")
        series.append((_json_int(m[0], "series id"), _json_int(m[1], "series id")))
    return ClassifiedGerm(
        germ_from_json(data["germ"]),
        positive_threshold(parse_rational(data["t"])),
        parse_rational(data["mld"]),
        certificate_from_json(data["certificate"]),
        series,
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
        **_type_label(lat),
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
    return json.dumps(data, separators=(", ", ": "))


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
        format_rational(record.mld),
        certificate_to_json(record.certificate)["case"],
        series_str,
    ]


TABLE_COLUMNS = ["type", "lattice", "boundary", "mld", "case", "series"]

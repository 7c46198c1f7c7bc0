"""Command line interface.

Subcommands: mld, classify, lawrence, enumerate, complement, verify.
All output is deterministic: canonical ordering and stable JSON key
order. Exit codes: 0 success, 1 invalid input, 2 internal verification
failure (a certificate failed its own re-check, which is a bug or a
theorem violation, never bad input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional, Sequence

from .certify import (
    Hit,
    NotTLC,
    classify_germ_record,
    enumerate_germs,
    lawrence,
    series_membership_lattice,
    verify_certificate_scaled,
    verify_lawrence_result,
)
from .errors import VerificationFailure
from .geometry import bounded_complement, complement_standard, verify_complement
from .germs import (
    Germ,
    case_analysis_lattice,
    germ_from_quotient_type,
    germ_psi,
    mld_argmin,
    sail_minimum,
    scaled_psi,
)
from .lattices import (
    Lattice,
    Ratio,
    Vec2,
    format_rational,
    lattice_from_quotient_type,
    parse_rational,
    positive_threshold,
    simplex_ratio,
    superlattices,
)
from .oracle import lawrence_oracle, mld_oracle_scaled, mld_oracle_value
from .records import (
    TABLE_COLUMNS,
    case_data_to_json,
    complement_record_from_json,
    complement_record_to_json,
    dumps,
    germ_to_json,
    lawrence_record_from_json,
    lawrence_record_to_json,
    record_fields,
    record_lines,
    record_table_row,
    record_to_json,
    type_label,
    type_label_agrees,
)

STANDARD_BOUNDARY_VALUES = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(4, 5),
    Fraction(5, 6),
    Fraction(1),
)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as exit code 1, not 2."""

    def error(self, message):
        raise ValueError(message)


def _parse_type(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"quotient type must be r,w1,w2: {text!r}")
    try:
        r, w1, w2 = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"quotient type must be three integers: {text!r}") from None
    return r, w1, w2


def _parse_boundary(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"boundary must be b1,b2: {text!r}")
    b1, b2 = (parse_rational(p) for p in parts)
    return b1, b2


def _germ_from_args(args) -> Germ:
    r, w1, w2 = _parse_type(args.type)
    b1, b2 = _parse_boundary(args.boundary) if args.boundary else (Fraction(0), Fraction(0))
    return germ_from_quotient_type(r, w1, w2, b1, b2)


def _boundary_pairs(args) -> list[tuple[Fraction, Fraction]]:
    if args.boundary_file and args.boundary_set != "file":
        raise ValueError("--boundary-file needs --boundary-set file")
    if args.boundary_set == "zero":
        return [(Fraction(0), Fraction(0))]
    if args.boundary_set == "standard":
        return [(a, b) for a in STANDARD_BOUNDARY_VALUES for b in STANDARD_BOUNDARY_VALUES]
    if args.boundary_set == "file":
        if not args.boundary_file:
            raise ValueError("--boundary-set file needs --boundary-file")
        with open(args.boundary_file, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, list):
            raise ValueError("boundary file must hold a JSON array of pairs")
        pairs = []
        for item in data:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"not a boundary pair: {item!r}")
            pairs.append((parse_rational(item[0]), parse_rational(item[1])))
        if not pairs:
            raise ValueError("boundary file holds no pairs")
        return pairs
    raise ValueError(f"unknown boundary set: {args.boundary_set!r}")


def _cmd_mld(args) -> int:
    germ = _germ_from_args(args)
    value, argmin = mld_argmin(germ)
    print(format_rational(value))
    print(" ".join(f"({format_rational(v.x1)},{format_rational(v.x2)})" for v in argmin))
    return 0


def _cmd_classify(args) -> int:
    germ = _germ_from_args(args)
    t = positive_threshold(parse_rational(args.t))
    lat, psi = germ.lattice, germ_psi(germ)
    if not (psi[1] or psi[2]):
        raise ValueError("threshold classification needs a nonzero psi (boundary below (1,1))")
    minimum = sail_minimum(lat, psi)
    data = case_analysis_lattice(lat, psi, minimum)
    out = record_to_json(classify_germ_record(germ, t, minimum, data))
    out["case_data"] = case_data_to_json(data, lat)
    print(dumps(out))
    return 0


def _cmd_lawrence(args) -> int:
    if (args.type is None) == (args.index_max is None):
        raise ValueError("exactly one of --type and --index-max is needed")
    simplex_ratio(args.p, args.q)
    if args.type is not None:
        r, w1, w2 = _parse_type(args.type)
        lattices = [lattice_from_quotient_type(r, w1, w2)]
    else:
        lattices = superlattices(args.index_max)
    for lat in lattices:
        result = lawrence(lat, args.p, args.q)
        print(dumps(lawrence_record_to_json(lat, args.p, args.q, result)))
    return 0


def _emit_table(records, out, fmt) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(record_table_row(record) for record in records)
    else:
        out.write("| " + " | ".join(TABLE_COLUMNS) + " |\n")
        out.write("|" + "---|" * len(TABLE_COLUMNS) + "\n")
        for record in records:
            out.write("| " + " | ".join(record_table_row(record)) + " |\n")


def _cmd_enumerate(args) -> int:
    cyclic = args.mode == "cyclic"
    bound = args.r_max if cyclic else args.index_max
    if bound is None:
        raise ValueError(f"mode {args.mode} needs {'--r-max' if cyclic else '--index-max'}")
    # Checks the threshold and every boundary pair before any output.
    records = enumerate_germs(
        args.mode, bound, parse_rational(args.t), _boundary_pairs(args), args.include_not_tlc
    )

    if args.resume:
        if not args.out:
            raise ValueError("--resume needs --out")
        if args.format != "jsonl":
            raise ValueError("--resume only supports the jsonl format")
        seen: set[str] = set()
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    line = line.strip()
                    if line:
                        try:
                            seen.add(dumps(json.loads(line)["germ"]))
                        except _MALFORMED as exc:
                            raise _malformed(line_no, exc) from None
        records = (r for r in records if dumps(germ_to_json(r.germ)) not in seen)

    mode = "a" if args.resume else "w"
    with open(args.out, mode, encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        if args.format == "jsonl":
            out.writelines(record_lines(records))
        else:
            _emit_table(records, out, args.format)
    return 0


def _cmd_complement(args) -> int:
    germ = _germ_from_args(args)
    if args.bounded:
        if args.p is not None or args.q is not None:
            raise ValueError("--bounded takes no --p or --q")
        print(dumps(complement_record_to_json(germ, bounded_complement(germ))))
        return 0
    p, q = (1 if x is None else x for x in (args.p, args.q))
    comp = complement_standard(germ, p, q)
    print(dumps(complement_record_to_json(germ, comp, p, q)))
    return 0


def _require(ok: bool, line_no: int, reason: str) -> None:
    if not ok:
        raise VerificationFailure(f"line {line_no}: {reason}")


# What decoding a malformed record raises: a missing key, a wrong type, a bad value.
_MALFORMED = (LookupError, TypeError, ValueError, ZeroDivisionError)


def _malformed(line_no: int, exc: Exception) -> ValueError:
    """Invalid input (exit 1) naming the line of the malformed record."""
    reason = f"record misses key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"line {line_no}: {reason}")


class _VerifyRun:
    """What one `verify` run shares between its records.

    `literals` maps each rational literal read so far to its reduced
    pair (`records.record_fields`), so each distinct literal is parsed
    once per run. The lattice entry is the last classification record's:
    its `germ.lattice` JSON (`raw`), the decoded lattice and its type
    label, and the series list for one threshold, a reduced (tn, td),
    built on first use. Classification records in a row with the same
    `germ.lattice` JSON share the entry; each still runs every check,
    the oracle's column walk included.
    """

    __slots__ = ("literals", "raw", "lattice", "label", "_series_t", "_series")

    def __init__(self):
        self.literals: dict[str, Ratio] = {}
        self.share(None, None)

    def share(self, raw: Optional[list], lattice: Optional[Lattice]) -> None:
        """Make `lattice`, decoded from `raw`, the lattice entry; (None, None) drops it."""
        self.raw, self.lattice = raw, lattice
        self.label = None if lattice is None else type_label(lattice)
        self._series_t: Optional[Ratio] = None
        self._series: list = []

    def series(self, t: Ratio) -> list:
        if self._series_t != t:
            self._series, self._series_t = series_membership_lattice(self.lattice, Fraction(*t)), t
        return self._series


# The state of the `verify` run in progress; `_cmd_verify` sets it and
# drops it when it returns.
_run: Optional[_VerifyRun] = None

# Literals a run holds before it empties its dict. Sweeps of small
# lattices repeat a few hundred literals, but most of a long cyclic
# sweep's are distinct (32,497 of 175,004 at r <= 10^4), and holding them
# all would grow a run's memory with its length.
_LITERALS_HELD = 4096


def _verify_classification(data: dict, line_no: int) -> None:
    """Decode, then check the label, the oracle's mld, the certificate, its side and the series.

    Everything runs in integers: the record's rationals are reduced
    (num, den) pairs, psi is (c1, c2)/s, and rationals are compared by
    cross-multiplying with their positive denominators.
    """
    run = _run
    if len(run.literals) > _LITERALS_HELD:
        run.literals.clear()
    germ = data.get("germ")
    raw = germ.get("lattice") if isinstance(germ, dict) else None
    shared = run.lattice is not None and run.raw == raw
    record = record_fields(data, run.lattice if shared else None, run.literals)
    if not shared:
        run.share(raw, record.lattice)
    _require(type_label_agrees(data, run.label), line_no, "type label disagrees with the lattice")
    psi = scaled_psi(*record.boundary)
    num, den = mld_oracle_scaled(run.lattice, psi)
    (mn, md), (tn, td) = record.mld, record.t
    _require(num * md == mn * den, line_no, "recorded mld disagrees with the oracle")
    outcome = verify_certificate_scaled(run.lattice, psi, record.t, record.certificate)
    _require(outcome.ok, line_no, f"certificate rejected: {outcome.reason}")
    _require(
        isinstance(record.certificate, NotTLC) == (num * td < tn * den),
        line_no,
        "certificate side disagrees with the oracle threshold test",
    )
    _require(
        run.series(record.t) == record.series,
        line_no,
        "series memberships disagree with recomputation",
    )


def _verify_lawrence(data: dict, line_no: int) -> None:
    lat, p, q, result = lawrence_record_from_json(data)
    _require(
        type_label_agrees(data, type_label(lat)), line_no, "type label disagrees with the lattice"
    )
    avoids = lawrence_oracle(lat, p, q)
    _require(avoids != isinstance(result, Hit), line_no, "recorded side disagrees with the oracle")
    outcome = verify_lawrence_result(lat, p, q, result)
    _require(outcome.ok, line_no, f"certificate rejected: {outcome.reason}")


def _verify_complement(data: dict, line_no: int) -> None:
    """Check the label and the complement, then the oracle's value at witness/n.

    The oracle runs last: `verify_complement` has by then made witness/n
    nonnegative, which the oracle needs.
    """
    germ, comp, target = complement_record_from_json(data)
    label = type_label(germ.lattice)
    _require(type_label_agrees(data, label), line_no, "type label disagrees with the lattice")
    outcome = verify_complement(germ, comp, target)
    _require(outcome.ok, line_no, f"complement rejected: {outcome.reason}")
    n, _, witness = comp
    value = mld_oracle_value(germ.lattice, Vec2(witness.x1 / n, witness.x2 / n))
    _require(
        value > 0 if target is None else value >= target,
        line_no,
        "complement value disagrees with the oracle",
    )


def _cmd_verify(args) -> int:
    global _run
    _run = _VerifyRun()
    count = 0
    try:
        with open(args.infile, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {line_no}: not JSON: {exc}") from None
                if not isinstance(data, dict):
                    raise ValueError(f"line {line_no}: not a JSON object")
                try:
                    if "certificate" in data:
                        _verify_classification(data, line_no)
                    else:
                        _run.share(None, None)
                        if "lawrence" in data:
                            _verify_lawrence(data, line_no)
                        elif "complement" in data:
                            _verify_complement(data, line_no)
                        else:
                            raise ValueError("unrecognized record shape")
                except _MALFORMED as exc:
                    raise _malformed(line_no, exc) from None
                count += 1
    finally:
        _run = None
    print(f"verified {count} records")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricmld",
        description="Exact classification of two-dimensional toric log germs by minimal log discrepancy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mld = sub.add_parser("mld", help="minimal log discrepancy of one germ")
    p_mld.add_argument("--type", required=True, help="quotient type r,w1,w2")
    p_mld.add_argument("--boundary", help="boundary coefficients b1,b2 (default 0,0)")
    p_mld.set_defaults(func=_cmd_mld)

    p_cls = sub.add_parser("classify", help="threshold certificate for one germ")
    p_cls.add_argument("--type", required=True, help="quotient type r,w1,w2")
    p_cls.add_argument("--boundary", help="boundary coefficients b1,b2 (default 0,0)")
    p_cls.add_argument("--t", required=True, help="threshold p/q")
    p_cls.set_defaults(func=_cmd_classify)

    p_law = sub.add_parser("lawrence", help="open simplex avoidance certificates")
    p_law.add_argument("--type", help="quotient type r,w1,w2")
    p_law.add_argument("--index-max", type=int, help="sweep all superlattices up to this index")
    p_law.add_argument("--p", required=True, type=int, help="simplex size numerator")
    p_law.add_argument("--q", required=True, type=int, help="simplex size denominator")
    p_law.set_defaults(func=_cmd_lawrence)

    p_enum = sub.add_parser("enumerate", help="stream classified canonical germs")
    p_enum.add_argument("--mode", required=True, choices=["cyclic", "all"])
    p_enum.add_argument("--r-max", type=int, help="cyclic order bound (mode cyclic)")
    p_enum.add_argument("--index-max", type=int, help="index bound (mode all)")
    p_enum.add_argument("--t", required=True, help="threshold p/q")
    p_enum.add_argument(
        "--boundary-set",
        default="zero",
        choices=["zero", "standard", "file"],
        help="boundary coefficients: zero, the standard ladder up to 5/6 plus 1, or a JSON file",
    )
    p_enum.add_argument("--boundary-file", help="JSON array of boundary pairs (with --boundary-set file)")
    p_enum.add_argument("--out", help="output path (default stdout)")
    p_enum.add_argument("--format", default="jsonl", choices=["jsonl", "csv", "markdown"])
    p_enum.add_argument("--resume", action="store_true", help="append records missing from --out")
    p_enum.add_argument(
        "--include-not-tlc",
        action="store_true",
        help="also stream germs whose value is below the threshold",
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_comp = sub.add_parser("complement", help="periodic complement boundaries")
    p_comp.add_argument("--type", required=True, help="quotient type r,w1,w2")
    p_comp.add_argument("--boundary", help="boundary coefficients b1,b2 (default 0,0)")
    p_comp.add_argument("--p", type=int, help="target ratio numerator (default 1)")
    p_comp.add_argument("--q", type=int, help="target ratio denominator (default 1)")
    p_comp.add_argument(
        "--bounded",
        action="store_true",
        help="level-minimal search with level at most ceil(2/value) instead of the standard construction",
    )
    p_comp.set_defaults(func=_cmd_complement)

    p_ver = sub.add_parser("verify", help="re-check a JSONL record stream with the oracle")
    p_ver.add_argument("--in", dest="infile", required=True, help="records file (jsonl)")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` and reused by every later one.

    Each parse returns a fresh namespace, so no argument outlives its call.
    """
    return build_parser()


def run(argv: Sequence[str]) -> int:
    args = _parser().parse_args(list(argv))
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: seeded inputs, the operations of one round, output checks.

Every operation is one `toricmld.cli.main(argv)` call, exactly as the
command line makes it. Operations are of two kinds, which are also the
trace phases: "classify" (an `enumerate` sweep or one `classify` query)
and "verify" (re-checking a records file with the oracle).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

STANDARD_LADDER = ("0", "1/2", "2/3", "3/4", "4/5", "5/6", "1")
QUERY_THRESHOLDS = ("1/2", "1/3", "1/4", "1/6", "1/12", "1/30")

# Sweep sizes with their pinned counts: `candidates` germs are classified
# per `enumerate`, `records` lines are written and then verified, and
# `cases` splits the records by certificate case.
# bench/tests/test_bench.py re-derives these counts.
SWEEPS = {
    "sweep-cyclic": {
        "full": {"mode": "cyclic", "bound": 40, "t": "1/2", "boundary_set": "zero",
                 "include_not_tlc": False, "candidates": 303, "records": 70,
                 "cases": {"a": 69, "b": 1}},
        "smoke": {"mode": "cyclic", "bound": 12, "t": "1/2", "boundary_set": "zero",
                  "include_not_tlc": False, "candidates": 36, "records": 21,
                  "cases": {"a": 20, "b": 1}},
    },
    "sweep-mixed": {
        "full": {"mode": "all", "bound": 5, "t": "1/4", "boundary_set": "standard",
                 "include_not_tlc": True, "candidates": 546, "records": 546,
                 "cases": {"a": 264, "b": 50, "not_tlc": 232}},
        "smoke": {"mode": "all", "bound": 3, "t": "1/4", "boundary_set": "standard",
                  "include_not_tlc": True, "candidates": 210, "records": 210,
                  "cases": {"a": 126, "b": 23, "not_tlc": 61}},
    },
}
# Query: `batch` classify calls per round, then one verify of their outputs.
QUERY = {
    "full": {"batch": 6, "r_min": 128, "r_max": 1024, "pool": 960},
    "smoke": {"batch": 3, "r_min": 128, "r_max": 1024, "pool": 3},
}
WORKLOADS = ("sweep-cyclic", "sweep-mixed", "query")


@dataclass
class Op:
    """One timed `cli.main` call and the work it stands for."""

    op_id: int
    kind: str
    start: float
    seconds: float
    ref_index: int
    work: int
    failure: str = ""


class Runner:
    """Runs operations one at a time (a closed loop with a single client).

    Each call takes a reference-kernel reading when one is due, times only
    the `cli.main` call, and captures what it prints. The caller checks
    the output afterwards, outside the timed region, with `_fail` marking
    an operation whose check did not hold.
    """

    def __init__(self, cli, clock, tracer=None):
        self.cli = cli
        self.clock = clock
        self.tracer = tracer
        self.ops: list[Op] = []
        self.phase_of_op: dict[int, str] = {}

    def call(self, kind: str, argv: list[str], work: int):
        ref_index = self.clock.before_op()
        op_id = len(self.ops) + 1
        self.phase_of_op[op_id] = kind
        if self.tracer is not None:
            self.tracer.op_id, self.tracer.phase = op_id, kind
        out, err = io.StringIO(), io.StringIO()
        failure = ""
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                # Looked up on each call, so wrappers installed by a tracer apply.
                rc = self.cli.main(argv)
            except Exception as exc:  # an operation that raises counts as failed
                rc, failure = None, f"raised {exc!r}"
            seconds = time.perf_counter() - start
        if rc != 0 and not failure:
            failure = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        op = Op(op_id, kind, start, seconds, ref_index, work, failure)
        self.ops.append(op)
        return op, out.getvalue()

    def untimed(self, argv: list[str]):
        """Exit code of a `cli.main` call that is a check, not an operation."""
        with self.checks(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return self.cli.main(argv)
            except Exception as exc:
                return f"raised {exc!r}"

    def checks(self):
        """Context in which the benchmark's own checks run, outside any span."""
        return nullcontext() if self.tracer is None else self.tracer.paused()


def _fail(op: Op, reason: str) -> None:
    if not op.failure:
        op.failure = reason


def _wrong_mld(record: dict) -> None:
    """an mld off by one"""
    record["mld"] = str(Fraction(record["mld"]) + 1)


def _zero_witness(record: dict) -> None:
    """a zero certificate vector"""
    cert = record["certificate"]
    cert[{"a": "m", "b": "m1", "not_tlc": "e"}[cert["case"]]] = ["0", "0"]


def _extra_series_point(record: dict) -> None:
    """a series id too many"""
    record["series"].append([999, 999])


# Each breaks one record so that a different check of `verify` catches
# it: the oracle value, the certificate verifier, the series recomputation.
TAMPERINGS = (_wrong_mld, _zero_witness, _extra_series_point)


def check_verify_rejects(runner: Runner, ver: Op, path: Path) -> None:
    """Negative control: `verify` must exit 2 on each tampered copy of `path`.

    The last record is the one tampered with, so a verify that stops
    early fails too. A control that does not hold fails `ver`.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return
    bad = path.with_name("tampered.jsonl")
    for tamper in TAMPERINGS:
        record = json.loads(lines[-1])
        tamper(record)
        bad.write_text("\n".join([*lines[:-1], json.dumps(record)]) + "\n", encoding="utf-8")
        rc = runner.untimed(["verify", "--in", str(bad)])
        if rc != 2:
            _fail(ver, f"verify gave {rc!r}, not exit code 2, on a record with {tamper.__doc__}")
    bad.unlink()


def sweep_argv(spec: dict, out: Path) -> list[str]:
    bound_flag = "--r-max" if spec["mode"] == "cyclic" else "--index-max"
    argv = [
        "enumerate", "--mode", spec["mode"], bound_flag, str(spec["bound"]),
        "--boundary-set", spec["boundary_set"], "--t", spec["t"], "--out", str(out),
    ]
    if spec["include_not_tlc"]:
        argv.append("--include-not-tlc")
    return argv


class Sweep:
    """`enumerate ... --out F` then `verify --in F`, the same every round.

    Every round is fixed work, so `fixed` changes nothing here. The
    first round also checks the certificate cases and runs the verify
    negative control.
    """

    def __init__(self, spec: dict, workdir: Path):
        self.spec = spec
        self.path = workdir / "sweep.jsonl"
        self.argv = sweep_argv(spec, self.path)
        self.digest = None
        self.controlled = False

    def run_round(self, runner: Runner, fixed: bool = False) -> list[Op]:
        spec = self.spec
        enum, _ = runner.call("classify", self.argv, spec["candidates"])
        if not enum.failure:
            data = self.path.read_bytes()
            lines = data.count(b"\n")
            digest = hashlib.sha256(data).hexdigest()
            if lines != spec["records"]:
                _fail(enum, f"wrote {lines} records, expected {spec['records']}")
            elif self.digest is None:
                self.digest = digest
                cases = Counter(json.loads(line)["certificate"]["case"] for line in data.splitlines())
                if cases != Counter(spec["cases"]):
                    _fail(enum, f"certificate cases {dict(cases)}, expected {spec['cases']}")
            elif digest != self.digest:
                _fail(enum, "sweep file differs from the first round's")
        ver, out = runner.call("verify", ["verify", "--in", str(self.path)], spec["records"])
        if out != f"verified {spec['records']} records\n":
            _fail(ver, f"verify printed {out.strip()!r}, expected {spec['records']} records")
        elif not self.controlled:
            self.controlled = True
            check_verify_rejects(runner, ver, self.path)
        return [enum, ver]


def query_calls(seed: int, size: dict) -> list[tuple]:
    """Seeded classify inputs (r, w1, w2, b1, b2, t), in stratified batches.

    Call i of a batch draws r log-uniformly from the i-th of `batch` equal
    slices of log r over [r_min, r_max], and batch k gives it threshold
    number (i + k) mod 6, so every batch asks for about the same work and
    every slice meets every threshold. Calls are shuffled within a batch.
    w1 and w2 are random units mod r, and the boundary pair comes from the
    standard ladder without (1, 1).
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in STANDARD_LADDER for b in STANDARD_LADDER if (a, b) != ("1", "1")]
    lo, hi = math.log(size["r_min"]), math.log(size["r_max"])
    batch, n_t = size["batch"], len(QUERY_THRESHOLDS)
    calls = []
    for k in range(size["pool"] // batch):
        block = []
        for i in range(batch):
            r = round(math.exp(lo + (i + rng.random()) / batch * (hi - lo)))
            w1, w2 = _unit(rng, r), _unit(rng, r)
            b1, b2 = rng.choice(pairs)
            block.append((r, w1, w2, b1, b2, QUERY_THRESHOLDS[(i + k) % n_t]))
        rng.shuffle(block)
        calls.extend(block)
    return calls


def _unit(rng: random.Random, r: int) -> int:
    while True:
        w = rng.randrange(1, r)
        if math.gcd(w, r) == 1:
            return w


def query_argv(call: tuple) -> list[str]:
    r, w1, w2, b1, b2, t = call
    return ["classify", "--type", f"{r},{w1},{w2}", "--boundary", f"{b1},{b2}", "--t", t]


class Query:
    """`batch` independent classify calls, then one verify of their outputs.

    Measuring rounds walk on through the seeded pool, wrapping around; a
    fixed round, used for tracing, always repeats the first batch. The
    first round also runs the verify negative control.
    """

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.size = size
        self.calls = query_calls(seed, size)
        self.path = workdir / "query.jsonl"
        self.next = 0
        self.digest = None
        self.controlled = False

    def run_round(self, runner: Runner, fixed: bool = False) -> list[Op]:
        batch = self.size["batch"]
        start = 0 if fixed else self.next
        if not fixed:
            self.next = (self.next + batch) % len(self.calls)
        ops, lines = [], []
        for i in range(start, start + batch):
            call = self.calls[i % len(self.calls)]
            op, out = runner.call("classify", query_argv(call), 1)
            if not op.failure:
                with runner.checks():
                    reason = check_classify(call, out)
                if reason:
                    _fail(op, reason)
                else:
                    lines.append(out)
            ops.append(op)
        data = "".join(lines)
        self.path.write_text(data, encoding="utf-8")
        if fixed:
            digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                _fail(ops[0], "classify outputs differ from the first fixed round's")
        ver, out = runner.call("verify", ["verify", "--in", str(self.path)], len(lines))
        if out != f"verified {len(lines)} records\n":
            _fail(ver, f"verify printed {out.strip()!r}, expected {len(lines)} records")
        elif not self.controlled:
            self.controlled = True
            check_verify_rejects(runner, ver, self.path)
        ops.append(ver)
        return ops


def check_classify(call: tuple, out: str) -> str:
    """Why one classify output is wrong, or "" when it holds.

    The value must equal the oracle's, the certificate must pass the
    independent verifier, and a NotTLC certificate must appear exactly
    when the oracle value is below t.
    """
    from toricmld.certify import NotTLC, verify_certificate_lattice
    from toricmld.germs import germ_from_quotient_type, psi_of
    from toricmld.oracle import mld_oracle_lattice
    from toricmld.records import record_from_json

    r, w1, w2, b1, b2, t = call
    try:
        record = record_from_json(json.loads(out))
    except ValueError as exc:
        return f"unreadable classify output: {exc}"
    germ = germ_from_quotient_type(r, w1, w2, Fraction(b1), Fraction(b2))
    if record.germ != germ or record.t != Fraction(t):
        return f"output describes another germ or threshold than {call}"
    psi = psi_of(germ)
    value, _ = mld_oracle_lattice(germ.lattice, psi)
    if record.mld != value:
        return f"mld {record.mld} differs from the oracle's {value} for {call}"
    outcome = verify_certificate_lattice(germ.lattice, psi, record.t, record.certificate)
    if not outcome:
        return f"certificate rejected for {call}: {outcome.reason}"
    if isinstance(record.certificate, NotTLC) != (value < record.t):
        return f"certificate side disagrees with the oracle for {call}"
    return ""


def make(name: str, seed: int, size: str, workdir: Path):
    if name in SWEEPS:
        return Sweep(SWEEPS[name][size], workdir)
    if name == "query":
        return Query(seed, QUERY[size], workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

"""Tests of the benchmark itself, at smoke size.

Run from the root of the repository:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import refkernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = child.import_program()

from toricmld.certify import CaseA, CaseB, candidate_germs, classify_tlc_lattice  # noqa: E402
from toricmld.germs import psi_of  # noqa: E402
from toricmld.oracle import mld_oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_listed_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for item in listed:
        got = result["metrics"][item["name"]]
        assert got["unit"] == item["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(got["value"] > 0 for got in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("query", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(workloads.SWEEPS))
@pytest.mark.parametrize("size", ["smoke", "full"])
def test_pinned_counts_match_the_oracle(name, size):
    """Candidates and the threshold side come from the oracle; the engine's
    classifier splits the records above the threshold into cases a and b."""
    spec = workloads.SWEEPS[name][size]
    if spec["boundary_set"] == "zero":
        pairs = [(Fraction(0), Fraction(0))]
    else:
        ladder = [Fraction(b) for b in workloads.STANDARD_LADDER]
        pairs = [(a, b) for a in ladder for b in ladder]
    germs = list(candidate_germs(spec["mode"], spec["bound"], pairs))
    t = Fraction(spec["t"])
    cases = Counter()
    for germ in germs:
        if mld_oracle(germ)[0] < t:
            if spec["include_not_tlc"]:
                cases["not_tlc"] += 1
            continue
        cert = classify_tlc_lattice(germ.lattice, psi_of(germ), t)
        cases[{CaseA: "a", CaseB: "b"}[type(cert)]] += 1
    assert (spec["candidates"], spec["records"]) == (len(germs), cases.total())
    assert Counter(spec["cases"]) == cases


@pytest.mark.parametrize("name", sorted(workloads.SWEEPS))
def test_traced_and_untraced_sweeps_write_identical_files(name, tmp_path):
    workload = workloads.make(name, 0, "smoke", tmp_path)
    tracer = tracing.Tracer()
    runner = workloads.Runner(cli, refkernel.RefClock(), tracer)
    plain = workload.run_round(runner)
    plain_bytes = workload.path.read_bytes()
    tracer.install()
    tracer.recording = True
    try:
        traced = workload.run_round(runner)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert workload.path.read_bytes() == plain_bytes
    assert not [op.failure for op in plain + traced if op.failure]
    assert any(span[0] == "certify.classify_germ_record" for span in tracer.spans)


def test_tracer_reports_a_missing_function_and_restores_the_rest(monkeypatch):
    import toricmld.germs
    import toricmld.lattices

    original = toricmld.lattices.cyclic_type
    monkeypatch.delattr(toricmld.lattices, "residues")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["lattices.residues"]
        assert toricmld.lattices.cyclic_type is not original
    finally:
        tracer.uninstall()
    assert toricmld.lattices.cyclic_type is original
    assert callable(toricmld.germs.residues)


def test_query_check_rejects_a_wrong_value():
    call = workloads.query_calls(11, workloads.QUERY["smoke"])[0]
    runner = workloads.Runner(cli, refkernel.RefClock())
    op, out = runner.call("classify", workloads.query_argv(call), 1)
    assert not op.failure
    assert workloads.check_classify(call, out) == ""
    data = json.loads(out)
    data["mld"] = "1/1000"
    assert "oracle" in workloads.check_classify(call, json.dumps(data))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_negative_control_fails_a_verify_that_accepts_everything(name, monkeypatch, tmp_path):
    workload = workloads.make(name, 3, "smoke", tmp_path)
    runner = workloads.Runner(cli, refkernel.RefClock())
    ops = workload.run_round(runner)
    assert not [op.failure for op in ops if op.failure]
    monkeypatch.setattr(cli, "_verify_classification", lambda data, line_no: None)
    workload = workloads.make(name, 3, "smoke", tmp_path)
    ops = workload.run_round(runner)
    assert ops[-1].kind == "verify"
    assert "not exit code 2" in ops[-1].failure
    assert not [op.failure for op in ops[:-1] if op.failure]

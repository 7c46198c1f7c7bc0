"""One workload in one process: set up, print READY, measure, print a JSON result.

Started by run.py; not meant to be run by hand. The package is
imported from the checkout's `src/`, and `TORICMLD_WORKERS` is removed,
so the sweeps always run in this single process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import refkernel
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("TORICMLD_WORKERS", None)
    import toricmld
    from toricmld import cli

    if src.resolve() not in Path(toricmld.__file__).resolve().parents:
        raise SystemExit(f"toricmld was imported from {toricmld.__file__}, not from {src}")
    return cli


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def round_rates(rounds, clock, kind):
    """Per round: work of `kind` ops over their seconds, and over their kernel units."""
    per_s, per_ref = [], []
    for ops in rounds:
        chosen = [op for op in ops if op.kind == kind]
        work = sum(op.work for op in chosen)
        per_s.append(work / sum(op.seconds for op in chosen))
        per_ref.append(work / sum(op.seconds / clock.ref(op.ref_index) for op in chosen))
    return per_s, per_ref


def kernel_summary(clock) -> dict:
    readings = clock.readings
    return {
        "readings_ms": [round(x * 1e3, 4) for x in readings],
        "median_ms": statistics.median(readings) * 1e3,
        "iqr_frac": spread(readings),
        "min_ms": min(readings) * 1e3,
        "max_ms": max(readings) * 1e3,
    }


def failures(ops) -> list[str]:
    return [f"op {op.op_id} ({op.kind}): {op.failure}" for op in ops if op.failure]


def measure(workload, cli, seconds: float) -> dict:
    """Untraced rounds until `seconds` pass; end-to-end metrics, raw and normalized."""
    clock = refkernel.RefClock()
    runner = workloads.Runner(cli, clock)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.run_round(runner))
    clock.finish()

    germs_s, germs_ref = round_rates(rounds, clock, "classify")
    records_s, records_ref = round_rates(rounds, clock, "verify")
    lat = [op.seconds for op in runner.ops if op.kind == "classify"]
    lat_ref = [op.seconds / clock.ref(op.ref_index) for op in runner.ops if op.kind == "classify"]
    metrics = {
        "germs_per_s": (statistics.median(germs_s), "1/s"),
        "germs_per_ref": (statistics.median(germs_ref), "1/ref"),
        "records_per_s": (statistics.median(records_s), "1/s"),
        "records_per_ref": (statistics.median(records_ref), "1/ref"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (quantile(lat, 90) * 1e3, "ms"),
        "latency_p50_ref": (statistics.median(lat_ref), "ref"),
        "latency_p90_ref": (quantile(lat_ref, 90), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {
        "attempted": len(runner.ops),
        "failed": sum(1 for op in runner.ops if op.failure),
        "failures": failures(runner.ops)[:20],
        "metrics": metrics,
        "samples": {"rounds": len(rounds), "latency": len(lat)},
        "kernel": kernel_summary(clock),
        "ops": [[op.kind, op.start, op.seconds, op.work] for op in runner.ops],
        "reading_times": clock.times,
    }


def layer_metrics(tracer, runner, germs: int) -> dict:
    """Per-layer metrics of one traced round."""
    summary = tracing.summarize(tracer.spans, runner.phase_of_op)
    funcs = summary["funcs"]
    out = {}
    for qual in tracing.FUNCTIONS:
        stats = funcs.get(qual, {"calls": 0, "total_ns": 0, "self_ns": 0})
        out[f"{qual}.calls"] = (stats["calls"], "count")
        out[f"{qual}.total_s"] = (stats["total_ns"] / 1e9, "s")
        out[f"{qual}.self_s"] = (stats["self_ns"] / 1e9, "s")
    phase_self = summary["phase_self_ns"]
    for module in tracing.MODULES:
        total = sum(phase_self.get((phase, module), 0) for phase in tracing.PHASES)
        out[f"{module}.self_s"] = (total / 1e9, "s")
        for phase in tracing.PHASES:
            out[f"{phase}.{module}.self_s"] = (phase_self.get((phase, module), 0) / 1e9, "s")

    counts = tracer.counts
    calls = summary["calls_by_phase"]

    def both(key):
        return sum(counts.get((phase, key), 0) for phase in tracing.PHASES)

    def ratio(num, den):
        return num / den if den else 0.0

    residues_calls = calls["classify"].get("lattices.residues", 0)
    box_calls = sum(calls[phase].get("lattices.points_in_box", 0) for phase in tracing.PHASES)
    dumps_calls = calls["classify"].get("records.dumps", 0)
    out["lattices.residues.calls_per_germ"] = (ratio(residues_calls, germs), "calls/germ")
    out["lattices.residues.points_per_germ"] = (
        ratio(counts.get(("classify", "lattices.residues.points"), 0), germs), "points/germ")
    out["lattices.points_in_box.points_per_call"] = (
        ratio(both("lattices.points_in_box.points"), box_calls), "points/call")
    out["certify.series_membership_lattice.hits_per_probe"] = (
        ratio(both("certify.series_membership_lattice.hits"),
              both("certify.series_membership_lattice.probes")), "hits/probe")
    out["records.bytes_per_record"] = (
        ratio(counts.get(("classify", "records.dumps.bytes"), 0), dumps_calls), "bytes/record")
    return out


def trace(workload, cli, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced rounds of fixed work until `seconds` pass.

    Per-layer metrics are medians over the traced rounds; the tracing
    overhead compares the rounds' normalized times. Outputs of traced
    and untraced rounds must be byte-identical (the workload checks it).
    """
    clock = refkernel.RefClock()
    tracer = tracing.Tracer()
    runner = workloads.Runner(cli, clock, tracer)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.run_round(runner, fixed=True))
        tracer.reset()
        tracer.install()
        tracer.recording = True
        try:
            ops = workload.run_round(runner, fixed=True)
        finally:
            tracer.recording = False
            tracer.uninstall()
        germs = sum(op.work for op in ops if op.kind == "classify")
        traced.append((ops, layer_metrics(tracer, runner, germs)))
    clock.finish()

    def norm_time(ops):
        return sum(op.seconds / clock.ref(op.ref_index) for op in ops)

    metrics = {}
    for name, (_, unit) in traced[0][1].items():
        metrics[name] = (statistics.median(m[name][0] for _, m in traced), unit)
    overhead = statistics.median(norm_time(ops) for ops, _ in traced) / statistics.median(
        norm_time(ops) for ops in plain
    )
    metrics["trace.overhead_frac"] = (overhead - 1, "ratio")
    write_spans(tracer.spans, spans_path)
    return {
        "attempted": len(runner.ops),
        "failed": sum(1 for op in runner.ops if op.failure),
        "failures": failures(runner.ops)[:20],
        "metrics": metrics,
        "absent": tracer.absent,
        "samples": {"plain_rounds": len(plain), "traced_rounds": len(traced), "spans": len(tracer.spans)},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "kernel": kernel_summary(clock),
    }


def write_spans(spans, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, op in spans:
            handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = import_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        workload = workloads.make(args.workload, args.seed, args.size, Path(tmp))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = trace(workload, cli, args.seconds, spans)
        else:
            result = measure(workload, cli, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

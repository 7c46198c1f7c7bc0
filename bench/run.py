"""Benchmark of the toricmld command line: sweeps, their verification, and queries.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-cyclic --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/README.md): sweep-cyclic,
sweep-mixed and query. With --trace 0 the last line of standard output
is one JSON object holding every end-to-end metric of BENCHMARK.json;
with --trace 1 it holds every per-layer metric. Details (kernel
readings, sample counts, machine, load) go to bench/out/. The exit code
is 0 only when every operation ran and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9  # set-up-only children, split before and after the measuring one
TIME_LIMIT = 175.0


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD's commit, read from `.git` (loose or packed ref); "unknown" if not found."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def child_argv(args, *extra) -> list[str]:
    return [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, *extra,
    ]


def start_child(argv, deadline):
    """Start a child; return it with the seconds from start to its READY line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    waiting, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - start))
    line = proc.stdout.readline() if waiting else ""
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not get ready: {line.strip()!r} (exit {proc.returncode})")
    return proc, ready


def finish_child(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child ran past the time limit and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return out


def probe(args, deadline) -> float:
    """Set-up seconds of one child that only sets up and exits."""
    proc, ready = start_child(child_argv(args, "--setup-only"), deadline)
    finish_child(proc, deadline)
    return ready


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT

    if not (ROOT / "src" / "toricmld" / "__init__.py").is_file():
        print(f"error: no toricmld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": git_commit(), "loadavg_before": loadavg(),
    }

    # A terminated benchmark stops its child too (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = None
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [probe(args, deadline) for _ in range(probes - probes // 2)]
        proc, ready = start_child(
            child_argv(args, "--seconds", str(args.seconds), "--trace", str(args.trace)), deadline
        )
        setup.append(ready)
        result = json.loads(finish_child(proc, deadline).strip().splitlines()[-1])
        setup += [probe(args, deadline) for _ in range(probes // 2)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    info["setup_samples_s"] = setup
    info["loadavg_after"] = loadavg()
    info.update(result)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")

    for name, got in result["metrics"].items():
        print(f"{name:56} {got['value']:.6g} {got['unit']}")
    metrics = {}
    for item in wanted:
        got = result["metrics"].get(item["name"])
        if got is None or got["unit"] != item["unit"]:
            print(f"error: metric {item['name']} [{item['unit']}] was not measured as listed",
                  file=sys.stderr)
            return 1
        metrics[item["name"]] = got
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"details: {detail.relative_to(ROOT)}", file=sys.stderr)
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

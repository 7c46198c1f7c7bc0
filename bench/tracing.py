"""Per-layer tracing from outside the program.

The tracer wraps a fixed list of `toricmld` public functions at every
`toricmld.*` namespace that binds them, records one span per call
(name, start, end, parent span, operation id) in memory, and counts
work at the same boundaries. Nothing under `src/` changes; the wrappers
exist only while a traced round runs.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

# `<module>.<function>` for every traced layer boundary. Generators
# (candidate_germs, cyclic_lattices, superlattices) are never listed:
# a wrapper would time only the creation of the generator.
FUNCTIONS = (
    "certify.classify_germ_record",
    "certify.classify_tlc_lattice",
    "certify.verify_certificate_lattice",
    "certify.series_membership_lattice",
    "germs.mld_lattice",
    "germs.mld_argmin_lattice",
    "germs.case_analysis_lattice",
    "germs.gamma_max_lattice",
    "germs.canonical_germ",
    "lattices.residues",
    "lattices.cyclic_type",
    "lattices.points_in_box",
    "lattices.lattice_from_generators",
    "lattices.dual",
    "records.record_to_json",
    "records.record_from_json",
    "records.dumps",
    "oracle.mld_oracle_lattice",
    "cli.main",
)
PACKAGE = "toricmld"
MODULES = ("cli", "certify", "germs", "lattices", "records", "oracle")
PHASES = ("classify", "verify")


def _series_counts(args, kwargs, result):
    t = Fraction(kwargs["t"] if "t" in kwargs else args[1])
    side = math.floor(1 / t) + 1
    return {"hits": len(result), "probes": side * side - 1}


# Work counted where it happens: name -> f(args, kwargs, result) -> {counter: n}.
COUNTERS = {
    "lattices.residues": lambda args, kwargs, result: {"points": len(result)},
    "lattices.points_in_box": lambda args, kwargs, result: {"points": len(result)},
    "certify.series_membership_lattice": _series_counts,
    "records.dumps": lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Installs wrappers, records spans and counts, and removes the wrappers.

    The caller sets `op_id` and `phase` before each operation; counts are
    kept per phase under `(phase, "<module>.<function>.<counter>")`.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.absent: list[str] = []
        self.op_id = 0
        self.phase = PHASES[0]
        self.recording = False
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for qual in FUNCTIONS:
            module_name, func_name = qual.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(qual)
                continue
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{qual} is a generator and cannot be timed by a wrapper")
            wrapper = self._wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[(self.phase, f"{name}.{key}")] += n
            return result

        return wrapper


def summarize(spans, phase_of_op) -> dict:
    """Per-function calls, total and self seconds, and per-phase module self time.

    A span's self time is its duration minus the durations of its direct
    children. `phase_of_op` maps an operation id to its phase.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    funcs_by_phase: dict = defaultdict(lambda: defaultdict(int))
    phase_self: dict = defaultdict(int)
    for i, (name, start, end, parent, op) in enumerate(spans):
        phase = phase_of_op[op]
        self_ns = end - start - child[i]
        stats = funcs[name]
        stats["calls"] += 1
        stats["total_ns"] += end - start
        stats["self_ns"] += self_ns
        funcs_by_phase[phase][name] += 1
        phase_self[(phase, name.split(".")[0])] += self_ns
    return {"funcs": funcs, "calls_by_phase": funcs_by_phase, "phase_self_ns": phase_self}

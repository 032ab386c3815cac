"""Per-layer tracing by wrapping oqsim functions where their callers look them up.

Each hook replaces one attribute (``oqsim.engine.compile_step``,
``oqsim.circuit.reset_factor``, ...) with a wrapper that records a span:
inclusive time, self time (inclusive minus wrapped callees) and calls.
Nothing in ``src/`` is edited and every attribute is restored afterwards.
A hook whose target no longer exists is skipped, and the metrics that need
it are reported as absent.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import Counter

import numpy as np

# (span, module, attribute path): the binding a caller of that layer uses.
HOOKS = (
    ("cli.main", "oqsim.cli", "main"),
    ("cli.run_experiment", "oqsim.cli", "run_experiment"),
    ("cli.write", "oqsim.cli", "write_csv"),
    ("cli.write", "oqsim.cli", "write_svg"),
    ("engine.run", "oqsim.engine", "run"),
    ("circuit.build", "oqsim.circuit", "build_markovian_step"),
    ("circuit.build", "oqsim.circuit", "build_nonmarkovian_step"),
    ("circuit.build", "oqsim.circuit", "build_sequential_step"),
    ("circuit.compile", "oqsim.circuit", "compile_step"),
    ("circuit.compile", "oqsim.engine", "compile_step"),
    ("circuit.compile", "oqsim.analysis", "compile_step"),
    ("circuit.kernel", "oqsim.engine", "run_compiled"),
    ("circuit.kernel", "oqsim.analysis", "run_compiled"),
    ("qmath.reset", "oqsim.circuit", "reset_factor"),
    ("qmath.partial_trace", "oqsim.engine", "partial_trace_matrix"),
    ("qmath.state_check", "oqsim.qmath", "DensityMatrix.__init__"),
    ("qmath.trace_distance", "oqsim.analysis", "trace_distance"),
    ("analysis.blp", "oqsim.analysis", "blp_witness"),
)

# metric -> (unit, better, spans it needs)
PER_UNIT = "s/unit"
LAYER_METRICS = {
    "qmath.reset_s": (PER_UNIT, "lower", ("qmath.reset",)),
    "qmath.reset_calls": ("count/unit", "lower", ("qmath.reset",)),
    "circuit.kernel_s": (PER_UNIT, "lower", ("circuit.kernel",)),
    "circuit.unitary_s": (PER_UNIT, "lower", ("circuit.kernel",)),
    "circuit.ops_unitary": ("count/unit", "lower", ("circuit.compile", "circuit.kernel")),
    "circuit.ops_reset": ("count/unit", "lower", ("circuit.compile", "circuit.kernel")),
    "circuit.ops_swap": ("count/unit", "lower", ("circuit.compile", "circuit.kernel")),
    "circuit.program_bytes": ("B", "lower", ("circuit.compile",)),
    "circuit.kernel_flops_computed": ("flop/unit", "lower", ("circuit.compile", "circuit.kernel")),
    "circuit.kernel_bytes_computed": ("B/unit", "lower", ("circuit.compile", "circuit.kernel")),
    "circuit.gflops_achieved": ("GFLOP/s", "higher", ("circuit.compile", "circuit.kernel")),
    "engine.run_s": (PER_UNIT, "lower", ("engine.run",)),
    "engine.record_s": (PER_UNIT, "lower", ("engine.run", "circuit.compile", "circuit.kernel")),
    "qmath.state_check_s": (PER_UNIT, "lower", ("qmath.state_check",)),
    "qmath.partial_trace_s": (PER_UNIT, "lower", ("qmath.partial_trace",)),
    "circuit.build_s": (PER_UNIT, "lower", ("circuit.build",)),
    "circuit.compile_s": (PER_UNIT, "lower", ("circuit.compile",)),
    "circuit.compile_calls": ("count/unit", "lower", ("circuit.compile",)),
    "setup.circuit.build_s": ("s", "lower", ("circuit.build",)),
    "setup.circuit.compile_s": ("s", "lower", ("circuit.compile",)),
    "analysis.blp_s": (PER_UNIT, "lower", ("analysis.blp",)),
    "qmath.trace_distance_s": (PER_UNIT, "lower", ("qmath.trace_distance",)),
    "cli.main_s": (PER_UNIT, "lower", ("cli.main",)),
    "cli.overhead_s": (PER_UNIT, "lower", ("cli.main", "cli.run_experiment")),
    "cli.write_s": (PER_UNIT, "lower", ("cli.write",)),
    "cli.bytes_written": ("B/unit", "lower", ("cli.write",)),
    "trace.steps_per_s_ratio": ("ratio", "higher", ()),
}

_COMPLEX_BYTES = 16


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


class Tracer:
    def __init__(self):
        self.patched = []
        self.present = set()
        self.stack = []
        self.reset()
        self.programs = {}

    def reset(self):
        self.incl = Counter()
        self.self_ = Counter()
        self.calls = Counter()
        self.child = Counter()  # (parent span, child span) -> inclusive ns
        self.counts = Counter()
        self.program_bytes = 0

    # -- installing -------------------------------------------------------

    def install(self):
        for span, module, path in HOOKS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(span, original, self._after(span)))
            self.patched.append((owner, attr, original))
            self.present.add(span)

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)
        self.programs.clear()

    def _wrap(self, span, fn, after):
        stack, clock = self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [span, 0]  # span name, inclusive ns of wrapped callees
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.incl[span] += dt
                self.self_[span] += dt - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += dt
                    self.child[(stack[-1][0], span)] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters at the layer boundaries ---------------------------------

    def _after(self, span):
        if span == "circuit.compile":
            return self._compiled
        if span == "circuit.kernel":
            return self._kernel_ran
        if span == "cli.write":
            return self._written
        return None

    def _compiled(self, args, result):
        """Price a compiled program once, from its step and its array sizes."""
        try:
            d = math.prod(w.dim for w in args[0].layout)
            kinds = Counter(op.kind for op in args[0].ops)
        except (AttributeError, IndexError, TypeError):  # compile_step changed shape
            return
        arrays = list(_arrays(result))
        payloads = [a for a in arrays if a.ndim == 2 and a.shape[0] == a.shape[1]]
        stats = {
            "ops_unitary": kinds["unitary-apply"],
            "ops_reset": kinds["trace-reset"],
            "ops_swap": kinds["swap"],
            # U rho U^dag as two one-sided contractions of an m x m operator
            "flops": sum(2 * 8 * a.shape[0] * d * d for a in payloads),
            # operator read once, state read and written by each contraction;
            # a reset reads and writes the state once
            "bytes": _COMPLEX_BYTES
            * (sum(a.shape[0] ** 2 + 4 * d * d for a in payloads)
               + kinds["trace-reset"] * 2 * d * d),
        }
        self.program_bytes = max(self.program_bytes, sum(a.nbytes for a in arrays))
        if len(self.programs) > 16:
            self.programs.clear()
        parts = result if isinstance(result, (tuple, list)) else ()
        for obj in (result, *parts):
            self.programs[id(obj)] = (obj, stats)

    def _kernel_ran(self, args, result):
        entry = self.programs.get(id(args[0])) if args else None
        if entry is None or entry[0] is not args[0]:
            self.counts["unpriced_kernel_calls"] += 1
            return
        for key, value in entry[1].items():
            self.counts[key] += value

    def _written(self, args, result):
        try:
            self.counts["bytes_written"] += os.path.getsize(args[0])
        except (OSError, IndexError, TypeError):
            pass

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, units: int, setup: dict, ratio: float):
        """Per-unit layer metrics over the traced units since the last reset.

        ``setup`` holds the ``circuit.build`` and ``circuit.compile`` seconds
        of the traced set-up.  Returns ``(metrics, absent)``; an absent
        metric reads 0 and is named in ``absent``.
        """

        def sec(ns):
            return ns / 1e9 / units

        incl, c = self.incl, self.counts
        kernel_in_run = self.child[("engine.run", "circuit.kernel")]
        compile_in_run = self.child[("engine.run", "circuit.compile")]
        unitary_s = self.self_["circuit.kernel"] / 1e9
        values = {
            "qmath.reset_s": sec(incl["qmath.reset"]),
            "qmath.reset_calls": self.calls["qmath.reset"] / units,
            "circuit.kernel_s": sec(incl["circuit.kernel"]),
            "circuit.unitary_s": sec(self.self_["circuit.kernel"]),
            "circuit.ops_unitary": c["ops_unitary"] / units,
            "circuit.ops_reset": c["ops_reset"] / units,
            "circuit.ops_swap": c["ops_swap"] / units,
            "circuit.program_bytes": self.program_bytes,
            "circuit.kernel_flops_computed": c["flops"] / units,
            "circuit.kernel_bytes_computed": c["bytes"] / units,
            "circuit.gflops_achieved": c["flops"] / unitary_s / 1e9 if unitary_s else 0.0,
            "engine.run_s": sec(incl["engine.run"]),
            "engine.record_s": sec(incl["engine.run"] - kernel_in_run - compile_in_run),
            "qmath.state_check_s": sec(incl["qmath.state_check"]),
            "qmath.partial_trace_s": sec(incl["qmath.partial_trace"]),
            "circuit.build_s": sec(incl["circuit.build"]),
            "circuit.compile_s": sec(incl["circuit.compile"]),
            "circuit.compile_calls": self.calls["circuit.compile"] / units,
            "setup.circuit.build_s": setup["circuit.build"],
            "setup.circuit.compile_s": setup["circuit.compile"],
            "analysis.blp_s": sec(incl["analysis.blp"]),
            "qmath.trace_distance_s": sec(incl["qmath.trace_distance"]),
            "cli.main_s": sec(incl["cli.main"]),
            "cli.overhead_s": sec(
                incl["cli.main"] - self.child[("cli.main", "cli.run_experiment")]
            ),
            "cli.write_s": sec(incl["cli.write"]),
            "cli.bytes_written": c["bytes_written"] / units,
            "trace.steps_per_s_ratio": ratio,
        }
        absent = [
            name
            for name, (_, _, spans) in LAYER_METRICS.items()
            if any(span not in self.present for span in spans)
        ]
        out = {}
        for name, (unit, _, _) in LAYER_METRICS.items():
            out[name] = (0.0 if name in absent else float(values[name]), unit)
        return out, absent

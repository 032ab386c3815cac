"""oqsim benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the repository root; oqsim is imported from ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose first half runs untraced to measure the tracing
overhead.  ``--smoke`` runs one unit of each kind and prints both sets.
Earlier lines record the environment, the workload, the raw wall times
and every metric by name and unit.  See perfbench/README.md for the
metric definitions.

Times in the metrics are scaled to a reference host speed.  The shared
hosts this runs on change speed by up to 2x for seconds to minutes at a
time, which moves a run's median by more than any bound worth setting.
So the workload's probe (:mod:`probe`, no oqsim code) runs before and
after every timed unit and set-up, and each time is multiplied by the
probe's reference time over the mean of the two probe times around it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import probe
import tracer as tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit, as declared in BENCHMARK.json
END_TO_END = {
    "steps_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
SETUP_REPS = 15
SETUP_PROBE = "interpreter"  # import, build and compile are interpreter work
WARMUP_UNITS = 2
TAIL_BEYOND = 10  # units that must lie above the reported tail percentile
# On a shared 2-core host, stalls of tens of ms hit about 1% of units in
# some runs and not in others; above p95 they, not the program, set the tail.
TAIL_CAP = 0.95


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def blas_library():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _purge_oqsim():
    for name in [m for m in sys.modules if m == "oqsim" or m.startswith("oqsim.")]:
        del sys.modules[name]


def timed_setup(wl, reps: int):
    """Import oqsim afresh, build and compile, ``reps`` times; numpy is
    already imported.  Returns the last imported package, the raw times
    and the probe times around them, both in ns."""
    times, probes = [], [probe.timed(SETUP_PROBE)]
    for _ in range(reps):
        _purge_oqsim()
        t0 = time.perf_counter_ns()
        for module in wl.modules:
            importlib.import_module(module)
        oq = sys.modules["oqsim"]
        wl.setup(oq)
        times.append(time.perf_counter_ns() - t0)
        probes.append(probe.timed(SETUP_PROBE))
    return oq, times, probes


class Tally:
    """Unit times, the probe times around them and the output digests of
    one phase of a run."""

    def __init__(self):
        self.times_ns = []
        self.probes_ns = []  # one more than times_ns once a unit has run
        self.digests = []  # (unit index, digest), digest None when the unit raised
        self.reported = False


def _report(wl, i, error=None):
    print(f"unit {i} of {wl.name} failed", file=sys.stderr)
    if error is not None:
        traceback.print_exception(error)


def run_units(wl, oq, start: int, tally: Tally, seconds: float = 0.0, count: int = 0):
    """Run units from index ``start`` for ``count`` units or, when ``count``
    is 0, until ``seconds`` have passed (at least one).  Only the unit is
    timed; its digest and the probe after it are taken afterwards.
    Returns the next index."""
    deadline = time.perf_counter() + seconds
    i = start
    if not tally.probes_ns:
        tally.probes_ns.append(probe.timed(wl.probe))
    while True:
        digest, error = None, None
        t0 = time.perf_counter_ns()
        try:
            output = wl.unit(oq, i)
        except Exception as exc:  # a failing unit is counted, and the run goes on
            error = exc
        dt = time.perf_counter_ns() - t0
        if error is None:
            try:
                digest = wl.digest(i, output)
            except Exception as exc:
                error = exc
        if error is not None and not tally.reported:
            tally.reported = True
            _report(wl, i, error)
        tally.times_ns.append(dt)
        tally.digests.append((i, None if error is not None else digest))
        tally.probes_ns.append(probe.timed(wl.probe))
        i += 1
        if count:
            if i - start >= count:
                return i
        elif time.perf_counter() >= deadline:
            return i


def count_failures(wl, tallies) -> int:
    """Units that raised, or whose digest is off the reference."""
    failed, reported = 0, False
    for tally in tallies:
        for i, digest in tally.digests:
            if digest is None:  # raised, and reported when it ran
                failed += 1
                continue
            error = None
            try:
                ok = wl.check(i, digest)
            except Exception as exc:
                ok, error = False, exc
            if not ok:
                failed += 1
                if not reported:
                    reported = True
                    _report(wl, i, error)
    return failed


def steps_per_s(wl, times_ns) -> float:
    return wl.steps_per_unit * len(times_ns) / (sum(times_ns) / 1e9)


def timings(wl, times_ns, setup_ns) -> tuple[dict, int]:
    """steps_per_s, unit_p50_ms, unit_tail_ms and setup_s of one set of
    times, and the index of the tail unit among the sorted unit times."""
    times = sorted(times_ns)
    n = len(times)
    tail_index = min(math.ceil(TAIL_CAP * n), n - TAIL_BEYOND) - 1 if n > TAIL_BEYOND else n - 1
    return {
        "steps_per_s": steps_per_s(wl, times),
        "unit_p50_ms": statistics.median(times) / 1e6,
        "unit_tail_ms": times[tail_index] / 1e6,
        "setup_s": statistics.median(setup_ns) / 1e9,
    }, tail_index


def end_to_end(wl, tally: Tally, setup_ns, setup_probes_ns, peak_rss_mib):
    """Metrics from scaled times; the raw wall times go into ``info``."""
    metrics, tail_index = timings(
        wl,
        probe.scale(tally.times_ns, tally.probes_ns, wl.probe),
        probe.scale(setup_ns, setup_probes_ns, SETUP_PROBE),
    )
    metrics["peak_rss_mib"] = peak_rss_mib
    raw, _ = timings(wl, tally.times_ns, setup_ns)
    n = len(tally.times_ns)
    info = {
        "units": n,
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 2),
        "units_beyond_tail": n - tail_index - 1,
        "probe": wl.probe,
        "probe_ms_p50": statistics.median(tally.probes_ns) / 1e6,
        "raw": raw,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def describe(wl) -> list:
    out = []
    for step in wl.circuits():
        kinds = [op.kind for op in step.ops]
        out.append(
            {
                "label": step.label,
                "d": math.prod(w.dim for w in step.layout),
                "ops_per_step": len(kinds),
                "resets_per_step": kinds.count("trace-reset"),
            }
        )
    return out


def traced(wl, oq, start: int, seconds: float, count: int):
    """Untraced then traced halves.  Returns per-layer metrics, absent
    metric names, kernel calls the tracer could not price, and the tallies."""
    plain, traced_tally = Tally(), Tally()
    start = run_units(wl, oq, start, plain, seconds / 2, count)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup(oq)
        setup = {span: tracer.incl[span] / 1e9 for span in ("circuit.build", "circuit.compile")}
        tracer.reset()
        run_units(wl, oq, start, traced_tally, seconds / 2, count)
    finally:
        tracer.restore()
    ratio = steps_per_s(
        wl, probe.scale(traced_tally.times_ns, traced_tally.probes_ns, wl.probe)
    ) / steps_per_s(wl, probe.scale(plain.times_ns, plain.probes_ns, wl.probe))
    metrics, absent = tracer.metrics(len(traced_tally.times_ns), setup, ratio)
    return metrics, absent, tracer.counts["unpriced_kernel_calls"], [plain, traced_tally]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one unit per phase, both metric sets")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oqsim", "__init__.py")):
        print(f"perfbench: no oqsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        oq, setup_ns, setup_probes_ns = timed_setup(wl, 1 if args.smoke else SETUP_REPS)
        if not os.path.abspath(oq.__file__).startswith(SRC + os.sep):
            print(f"perfbench: imported oqsim from {oq.__file__}, not {SRC}", file=sys.stderr)
            return 2
        print("env " + json.dumps(environment(args.seed)))

        warm = Tally()
        tallies = [warm]
        nxt = 0 if args.smoke else run_units(wl, oq, 0, warm, count=WARMUP_UNITS)
        count = 1 if args.smoke else 0
        metrics, info = {}, {}
        if args.smoke or not args.trace:
            timed = Tally()
            nxt = run_units(wl, oq, nxt, timed, args.seconds, count)
            metrics, info = end_to_end(wl, timed, setup_ns, setup_probes_ns, peak_rss_mib())
            tallies.append(timed)
        if args.smoke or args.trace:
            layer, absent, unpriced, phases = traced(wl, oq, nxt, args.seconds, count)
            metrics.update(layer)
            info.update(absent=absent, unpriced_kernel_calls=unpriced)
            tallies += phases
        wl.reference(oq)
        failed = count_failures(wl, tallies)
        attempted = sum(len(t.times_ns) for t in tallies)
        info.update(
            warmup_units=len(warm.times_ns),
            warmup_ms=[t / 1e6 for t in warm.times_ns],
            setup_s_all=[t / 1e9 for t in setup_ns],
            failed_frac=failed / attempted,
        )
        print(
            "workload "
            + json.dumps(
                {"name": wl.name, "why": wl.why, "circuits": describe(wl), **info}
            )
        )
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value!r} {unit}")
        print(f"metric failed_frac {failed / attempted!r} ratio")
    finally:
        wl.close()

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

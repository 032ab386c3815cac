"""The benchmark's four workloads.

Each workload draws its inputs from the seed alone and builds its step
circuits through oqsim's public builders.  Right after a unit, untimed,
its output is cut down to a small digest; once the timed units are done
and peak memory is read, every digest is checked against the dense
reference in :mod:`oracle`.  Calls into oqsim go through module
attributes looked up at call time (``oq.engine.run``, never a name bound
at import), so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _haar_unitary(rng, n=2) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _angles(rng, n) -> tuple[float, ...]:
    return tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=n))


def _pure(v) -> np.ndarray:
    return np.outer(v, np.conj(v))


def _qubit(oq, matrix):
    return oq.qmath.DensityMatrix(matrix, (oq.qmath.Wire("q"),))


def _first_compile(oq, step):
    """The first compile of a step, where the program still has a compile stage."""
    compile_step = getattr(oq.circuit, "compile_step", None)
    if compile_step is not None:
        compile_step(step)


def _rows(traj, observables) -> np.ndarray:
    """A trajectory in the layout of :func:`oracle.trajectory`."""
    series = [traj.series(name) for name in observables]
    return np.array(
        [[s[n] for s in series] + [rec.trace, rec.purity] for n, rec in enumerate(traj.records)]
    )


class Workload:
    name = ""
    why = ""
    modules = ("oqsim",)
    steps_per_unit = 0
    probe = "interpreter"  # the kind of :mod:`probe` that slows down as this workload does

    def setup(self, oq):
        """Build the step circuits and compile each once (timed as set-up)."""
        raise NotImplementedError

    def unit(self, oq, i: int):
        raise NotImplementedError

    def digest(self, i: int, output):
        """The part of a unit's output that :meth:`check` needs (untimed)."""
        return output

    def reference(self, oq):
        """Compute the dense reference outputs (untimed, after the timed units)."""
        raise NotImplementedError

    def check(self, i: int, digest) -> bool:
        raise NotImplementedError

    def circuits(self) -> list:
        raise NotImplementedError

    def close(self):
        pass


class _Trajectory(Workload):
    """One unit is ``engine.run`` of one step circuit from one initial state."""

    def _build(self, oq):
        raise NotImplementedError

    def setup(self, oq):
        self.step = self._build(oq)
        _first_compile(oq, self.step)
        self.state = _qubit(oq, self.rho0)
        self.obs = [oq.engine.projector_observable(n) for n in self.observables]

    def unit(self, oq, i):
        return oq.engine.run(self.step, self.state, self.steps, self.obs)

    def digest(self, i, output):
        return _rows(output, self.observables)

    def reference(self, oq):
        self.want = oracle.trajectory(self.step, self.rho0, self.steps, self.observables)

    def check(self, i, digest):
        return oracle.matches(digest, self.want)

    def circuits(self):
        return [self.step]


class MemoryK7(_Trajectory):
    name = "memory_k7"
    why = (
        "k=7 memory register (d=256): full-space matmuls and a 14 MiB compiled "
        "program dominate; one reset per step is negligible"
    )
    K = 7
    probe = "blas"

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        self.thetas = _angles(rng, self.K)
        self.rho0 = _pure(np.array([0.0, 1.0], dtype=complex))
        self.observables = ("p1",)
        self.steps = self.steps_per_unit = 1 if smoke else 10

    def _build(self, oq):
        mem = oq.circuit.MemorySpec(self.K, self.thetas)
        return oq.circuit.build_nonmarkovian_step("amplitude-damping", mem)


class SequentialL64(_Trajectory):
    name = "sequential_l64"
    why = (
        "sequential factorization of a 64-operator mixed-unitary channel: 258 ops "
        "and 65 resets per step on d=8, so per-op dispatch and resets dominate"
    )
    L = 64

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(self.L))
        self.operators = [math.sqrt(p) * _haar_unitary(rng) for p in probs]
        self.rho0 = _pure(_haar_unitary(rng)[:, 0])
        self.observables = ("p1", "p+")
        self.steps = self.steps_per_unit = 1 if smoke else 20

    def _build(self, oq):
        ch = oq.channels.KrausChannel(2, self.operators, label=f"mixed-unitary-l{self.L}")
        return oq.circuit.build_sequential_step(ch)


class BlpGrid(Workload):
    name = "blp_grid"
    why = (
        "parameter scan: each grid point builds a k=3 memory step and evolves an "
        "orthogonal pair through analysis.blp_witness; compile cost and no I/O"
    )
    K = 3
    KINDS = ("amplitude-damping", "dephasing")

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        self.steps = 2 if smoke else 50
        self.steps_per_unit = 2 * self.steps
        self.points = []
        for j in range(2 if smoke else 32):
            psi = _haar_unitary(rng)
            self.points.append(
                (
                    self.KINDS[j % 2],
                    _angles(rng, self.K),
                    _pure(psi[:, 0]),
                    _pure(psi[:, 1]),
                )
            )

    def _build(self, oq, j):
        kind, thetas, _, _ = self.points[j]
        return oq.circuit.build_nonmarkovian_step(
            kind, oq.circuit.MemorySpec(self.K, thetas)
        )

    def setup(self, oq):
        self.step0 = self._build(oq, 0)
        _first_compile(oq, self.step0)

    def reference(self, oq):
        self.want = [
            oracle.blp_witness(self._build(oq, j), a, b, self.steps)
            for j, (_, _, a, b) in enumerate(self.points)
        ]

    def unit(self, oq, i):
        j = i % len(self.points)
        _, _, a, b = self.points[j]
        step = self._build(oq, j)
        return oq.analysis.blp_witness(step, _qubit(oq, a), _qubit(oq, b), self.steps)

    def check(self, i, digest):
        return abs(digest - self.want[i % len(self.points)]) <= oracle.TOLERANCE

    def circuits(self):
        return [self.step0]


PRESETS = {
    "fig6": ("amplitude-damping", math.pi / 10, (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6), 50, "p1"),
    "fig7": ("dephasing", math.pi / 5, (math.pi / 5, math.pi / 4, math.pi / 2), 100, "p+"),
    "fig8": ("amplitude-damping", math.pi / 8, (math.pi / 8, 5 * math.pi / 6, math.pi), 50, "p1"),
}
_PRESET_INITIAL = {"p1": np.array([0.0, 1.0]), "p+": np.array([1.0, 1.0]) / math.sqrt(2.0)}


class Presets(Workload):
    name = "presets"
    why = (
        "what users run to reproduce the paper: cli.main on fig6, fig7 (+svg) and "
        "fig8, 400 step applications at d<=16; record, reset and CLI costs show"
    )
    modules = ("oqsim", "oqsim.cli")
    steps_per_unit = 2 * sum(p[3] for p in PRESETS.values())

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        self.order = [str(f) for f in rng.permutation(sorted(PRESETS))]
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.first = None
        self.first_ok = False

    def setup(self, oq):
        self.steps_by_arm = {}
        for fig, (kind, theta, thetas, _, _) in PRESETS.items():
            mem = oq.circuit.MemorySpec(len(thetas), thetas)
            self.steps_by_arm[f"{fig}_markovian"] = oq.circuit.build_markovian_step(kind, theta)
            self.steps_by_arm[f"{fig}_nonmarkovian"] = oq.circuit.build_nonmarkovian_step(kind, mem)
        for step in self.steps_by_arm.values():
            _first_compile(oq, step)

    def _argv(self, fig):
        argv = ["--preset", fig, "--csv", os.path.join(self.tmp, f"{fig}.csv")]
        if fig == "fig7":
            argv += ["--svg", os.path.join(self.tmp, "fig7.svg")]
        return argv

    def unit(self, oq, i):
        with contextlib.redirect_stdout(io.StringIO()):
            return [oq.cli.main(self._argv(fig)) for fig in self.order]

    def _outputs(self) -> dict:
        out = {}
        for name in sorted(self.steps_by_arm) + ["fig7.svg"]:
            path = os.path.join(self.tmp, name if name.endswith(".svg") else f"{name}.csv")
            with open(path, "rb") as fh:
                out[name] = fh.read()
        return out

    def digest(self, i, output):
        """Exit codes, and whether the files equal the first round's bytes."""
        files = self._outputs()
        if self.first is None:
            self.first = files
        return tuple(output), files == self.first

    def _csv_rows(self, data: bytes) -> np.ndarray:
        lines = data.decode("utf-8").splitlines()
        if lines[0] != "step,observable,value,trace,purity":
            raise ValueError(f"unexpected CSV header {lines[0]!r}")
        rows = []
        for n, line in enumerate(lines[1:]):
            step, _, value, trace, purity = line.split(",")
            if int(step) != n:
                raise ValueError(f"CSV row {n} is step {step}")
            rows.append([float(value), float(trace), float(purity)])
        return np.array(rows)

    def reference(self, oq):
        want = {}
        for arm, step in self.steps_by_arm.items():
            _, _, _, steps, obs = PRESETS[arm.split("_")[0]]
            want[arm] = oracle.trajectory(step, _pure(_PRESET_INITIAL[obs]), steps, (obs,))
        try:
            self.first_ok = self.first is not None and all(
                oracle.matches(self._csv_rows(self.first[arm]), rows)
                for arm, rows in want.items()
            )
        except (ValueError, IndexError):  # malformed CSV; UnicodeDecodeError is a ValueError
            self.first_ok = False

    def check(self, i, digest):
        """Every run exits 0, writes the first round's bytes, and the first
        round's CSVs match the reference."""
        codes, same_bytes = digest
        return all(code == 0 for code in codes) and same_bytes and self.first_ok

    def circuits(self):
        return list(self.steps_by_arm.values())

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Presets, MemoryK7, SequentialL64, BlpGrid)}

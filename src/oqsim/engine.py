"""Trajectory engine: repeated step application with per-step records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import StepCircuit, compile_step, run_compiled
from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    is_hermitian,
    layout_dim,
    partial_trace_matrix,
    tensor_product,
    wire_index,
)


class NumericalViolationError(RuntimeError):
    """A recorded state broke an invariant during a run."""

    def __init__(self, step: int, invariant: str, message: str):
        super().__init__(f"step {step}: {invariant} violated ({message})")
        self.step = step
        self.invariant = invariant


@dataclass(frozen=True)
class Observable:
    """Named projector on the system wires."""

    name: str
    projector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=complex)
        if not is_hermitian(p):
            raise ValueError(f"projector {self.name!r} is not Hermitian")
        if np.max(np.abs(p @ p - p)) > 1e-10:
            raise ValueError(f"projector {self.name!r} is not idempotent")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "projector", p)


_NAMED_KETS = {
    "p0": np.array([1.0, 0.0], dtype=complex),
    "p1": np.array([0.0, 1.0], dtype=complex),
    "p+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "p-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def projector_observable(name: str) -> Observable:
    """One of the builtin single-qubit population observables p0/p1/p+/p-."""
    if name not in _NAMED_KETS:
        raise ValueError(f"unknown observable {name!r}; expected one of {sorted(_NAMED_KETS)}")
    v = _NAMED_KETS[name]
    return Observable(name, np.outer(v, v.conj()))


@dataclass(frozen=True)
class StepRecord:
    step: int
    values: dict
    trace: float
    purity: float


@dataclass(frozen=True)
class Trajectory:
    """Per-step observable records, including step 0 (the initial state)."""

    step_count: int
    records: tuple

    def series(self, name: str) -> list[float]:
        if name not in self.records[0].values:
            raise KeyError(f"unknown observable {name!r}")
        return [r.values[name] for r in self.records]

    @property
    def observable_names(self) -> tuple[str, ...]:
        return tuple(self.records[0].values)


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), in (0, 1]."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def _initial_full_matrix(step: StepCircuit, rho0: DensityMatrix) -> np.ndarray:
    sys_labels = list(step.system)
    if list(rho0.wire_labels) != sys_labels:
        raise DimensionMismatchError(
            f"initial state wires {rho0.wire_labels} do not match system wires "
            f"{tuple(sys_labels)}"
        )
    positions = [wire_index(step.layout, s) for s in sys_labels]
    if positions != list(range(positions[0], positions[0] + len(positions))):
        raise DimensionMismatchError("system wires must be contiguous in the layout")
    before = layout_dim(step.layout[: positions[0]])
    after = layout_dim(step.layout[positions[-1] + 1:])
    ground = [np.eye(n, 1) @ np.eye(1, n) for n in (before, after)]  # |0><0|
    return tensor_product(tensor_product(ground[0], rho0.matrix), ground[1])


def _reduced_system(matrix: np.ndarray, step: StepCircuit) -> np.ndarray:
    dims = [w.dim for w in step.layout]
    labels = list(step.wire_labels)
    red = matrix
    for i in range(len(labels) - 1, -1, -1):
        if labels[i] not in step.system:
            red = partial_trace_matrix(red, dims, i)
            del dims[i], labels[i]
    return red


def run(
    step: StepCircuit,
    rho0_system: DensityMatrix,
    steps: int,
    observables: list[Observable],
) -> Trajectory:
    """Apply ``step`` repeatedly, recording observables on the reduced system.

    Environment and control wires start in |0><0|.  Record 0 is the
    initial state; every recorded state is checked against the density
    matrix invariants, raising :class:`NumericalViolationError` on failure
    so that long runs cannot silently drift.
    """
    if steps < 1:
        raise ValueError(f"step count {steps} must be >= 1")
    sys_dim = rho0_system.dim
    for obs in observables:
        if obs.projector.shape[0] != sys_dim:
            raise DimensionMismatchError(
                f"observable {obs.name!r} dim {obs.projector.shape[0]} does not "
                f"match system dim {sys_dim}"
            )
    matrix = _initial_full_matrix(step, rho0_system)
    dims, compiled = compile_step(step)
    sys_layout = rho0_system.layout

    def record(n: int, mat: np.ndarray) -> StepRecord:
        red = _reduced_system(mat, step)
        try:
            state = DensityMatrix(red, sys_layout)
        except InvalidStateError as exc:
            raise NumericalViolationError(n, exc.invariant, str(exc)) from exc
        values = {
            obs.name: float(np.real(np.trace(obs.projector @ red)))
            for obs in observables
        }
        return StepRecord(
            step=n,
            values=values,
            trace=float(np.real(np.trace(red))),
            purity=purity(state),
        )

    records = [record(0, matrix)]
    for n in range(1, steps + 1):
        matrix = run_compiled(compiled, dims, matrix)
        records.append(record(n, matrix))
    return Trajectory(step_count=steps, records=tuple(records))

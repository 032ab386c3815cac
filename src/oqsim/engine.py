"""Trajectory engine: repeated step application with per-step records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import StepCircuit, compile_step, run_compiled
from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    check_states,
    is_hermitian,
    layout_dim,
    partial_trace_matrix,
    tensor_product,
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


def _purities(m: np.ndarray) -> np.ndarray:
    """trace(m @ m) over the last two axes, for one matrix or a stack."""
    return np.einsum("...ij,...ji->...", m, m).real


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), in (0, 1]."""
    return float(_purities(rho.matrix))


def evolve(step: StepCircuit, rho0_system: DensityMatrix, steps: int):
    """Yield the reduced system matrix after 0, 1, .., ``steps`` applications.

    The register starts as |0><0| (x) rho0 (x) |0><0|: the system wires must
    be contiguous, with the environment and control wires before and after
    them in |0>.  The step is compiled once.
    """
    if rho0_system.wire_labels != step.system:
        raise DimensionMismatchError(
            f"initial state wires {rho0_system.wire_labels} do not match system wires "
            f"{step.system}"
        )
    start = step.wire_labels.index(step.system[0])
    stop = start + len(step.system)
    if step.layout[start:stop] != rho0_system.layout:
        raise DimensionMismatchError(
            "system wires must be contiguous in the layout, with the initial state's dims"
        )
    before, after = layout_dim(step.layout[:start]), layout_dim(step.layout[stop:])
    ground = [np.eye(n, 1) @ np.eye(1, n) for n in (before, after)]  # |0><0|
    matrix = tensor_product(tensor_product(ground[0], rho0_system.matrix), ground[1])
    blocks = (before, rho0_system.dim, after)
    dims, program = compile_step(step)
    for n in range(steps + 1):
        if n:
            matrix = run_compiled(program, dims, matrix)
        yield partial_trace_matrix(partial_trace_matrix(matrix, blocks, 2), blocks[:2], 0)


def run(
    step: StepCircuit,
    rho0_system: DensityMatrix,
    steps: int,
    observables: list[Observable],
) -> Trajectory:
    """Apply ``step`` repeatedly, recording observables on the reduced system.

    Environment and control wires start in |0><0|.  Record 0 is the
    initial state.  Once :func:`evolve` has produced the whole trajectory,
    its reduced states are checked against the density-matrix invariants
    and measured, each in one pass over the stack; the first state that
    breaks an invariant raises :class:`NumericalViolationError` with its
    step, so that long runs cannot silently drift.
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
    states = np.stack(list(evolve(step, rho0_system, steps)))
    try:
        check_states(states, rho0_system.layout)
    except InvalidStateError as exc:
        raise NumericalViolationError(exc.index, exc.invariant, str(exc)) from exc
    projectors = np.array([obs.projector for obs in observables]).reshape(-1, sys_dim, sys_dim)
    values = np.einsum("oij,nji->no", projectors, states).real.tolist()
    traces = np.einsum("nii->n", states).real.tolist()
    purities = _purities(states).tolist()
    names = [obs.name for obs in observables]
    records = tuple(
        StepRecord(step=n, values=dict(zip(names, row)), trace=tr, purity=pu)
        for n, (row, tr, pu) in enumerate(zip(values, traces, purities))
    )
    return Trajectory(step_count=steps, records=records)

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

    records: tuple

    def series(self, name: str) -> list[float]:
        if name not in self.records[0].values:
            raise KeyError(f"unknown observable {name!r}")
        return [r.values[name] for r in self.records]

    @property
    def observable_names(self) -> tuple[str, ...]:
        return tuple(self.records[0].values)


_CHUNK_ENTRIES = 2**14  # complex entries of carried states that evolve reduces in one call


def _purities(m: np.ndarray) -> np.ndarray:
    """trace(m @ m) over the last two axes, for one matrix or a stack."""
    return np.einsum("...ij,...ji->...", m, m).real


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), in (0, 1]."""
    return float(_purities(rho.matrix))


def evolve(step: StepCircuit, states, steps: int) -> np.ndarray:
    """Reduced system matrices of each initial state after 0, 1, .., ``steps`` applications.

    Each register starts as |0><0| (x) rho0 (x) |0><0|: the system wires must
    be contiguous, with the other wires before and after them in |0>.  One
    compile to the carried register, then per step one kernel call per state
    into a chunk buffer of carried states, and one partial trace per full (or
    last) chunk.  The buffer holds at most ``2**14`` complex entries (256 KiB),
    or one step's ``(len(states), d_c, d_c)`` stack when that is larger.
    Returns the ``(steps + 1, len(states), s, s)`` stack after one
    :func:`check_states` in step order: an :class:`InvalidStateError` index
    is ``step * len(states) + state``.  A negative ``steps`` raises
    :class:`ValueError`, a stack too large to allocate :class:`MemoryError`;
    a step without system wires raises :class:`DimensionMismatchError`.
    """
    if steps < 0:
        raise ValueError(f"step count {steps} must be >= 0")
    if not step.system:
        raise DimensionMismatchError(f"step {step.label!r} has no system wires")
    start = step.wire_labels.index(step.system[0])
    stop = start + len(step.system)
    system = step.layout[start:stop]
    if step.wire_labels[start:stop] != step.system:
        raise DimensionMismatchError(f"system wires {step.system} are not contiguous in the layout")
    for rho in states:
        if rho.layout != system:
            raise DimensionMismatchError(f"initial state layout {rho.layout} is not {system}")
    carried, *_ = program = compile_step(step)
    kept = [step.layout[i] for i in carried]  # system wires are always carried
    at = kept.index(system[0])
    blocks = (layout_dim(kept[:at]), layout_dim(system), layout_dim(kept[at + len(system):]))
    s, dc = blocks[1], layout_dim(kept)
    try:
        out = np.empty((steps + 1, len(states), s, s), dtype=complex)
    except ValueError as exc:  # a shape beyond numpy's index range
        raise MemoryError(str(exc)) from None
    chunk = max(1, _CHUNK_ENTRIES // (len(states) * dc * dc or 1))
    buffer = np.zeros((min(chunk, steps + 1), len(states), dc, dc), dtype=complex)
    first = buffer[0].reshape(len(states), *blocks, *blocks)  # a view: buffer is contiguous
    first[:, 0, :, 0, 0, :, 0] = np.reshape([rho.matrix for rho in states], (-1, s, s))
    for n in range(steps + 1):
        j = n % chunk  # slot j - 1 (the last one when j == 0) holds step n - 1
        for i in range(len(states)) if n else ():  # one kernel call per state and step
            buffer[j, i:i + 1] = run_compiled(program, buffer[j - 1, i:i + 1])
        if j == chunk - 1 or n == steps:
            out[n - j:n + 1] = partial_trace_matrix(buffer[:j + 1], blocks, 0, 2)
    check_states(out.reshape(-1, s, s), system)
    return out


def run(
    step: StepCircuit,
    rho0_system: DensityMatrix,
    steps: int,
    observables: list[Observable],
) -> Trajectory:
    """Apply ``step`` repeatedly, recording observables on the reduced system.

    Environment and control wires start in |0><0|.  Record 0 is the
    initial state.  The trajectory is the checked stack :func:`evolve`
    returns for the one initial state, measured in one pass; the first
    state that breaks an invariant raises :class:`NumericalViolationError`
    with its step, so that long runs cannot silently drift.
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
    try:
        states = evolve(step, [rho0_system], steps)[:, 0]
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
    return Trajectory(records=records)

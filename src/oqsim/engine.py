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
        if not (np.abs(p) <= 1.0 + 1e-10).all():  # before any product can overflow
            raise ValueError(f"projector {self.name!r} has an entry not finite or above 1")
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
    compile to the carried register (dim d_c), then one kernel call per state
    and step.

    A state after n steps is W_n (I (x) X) W_n^dag: X is the block of rho0 on
    the m system basis states that the call's initial states occupy (a row or
    column not all zero), W_0 the ``(d_c, m)`` lift of those into the register
    and W_{n+1} = [K_1 W_n, .., K_r W_n].  While W has fewer than d_c columns
    the kernel maps W, and the record is tr_env W (I (x) X) W^dag from the
    system rows of W.  Then W (I (x) X) W^dag is formed once and the steps go
    on densely, into a chunk buffer of at most ``2**14`` complex entries, or
    one step's ``(len(states), d_c, d_c)`` stack when that is larger, reduced
    by one partial trace per full (or last) chunk.  Exact for any rho0.

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
    if not len(states):
        return out
    chunk = max(1, _CHUNK_ENTRIES // (len(states) * dc * dc))
    rho0 = np.reshape([rho.matrix for rho in states], (-1, s, s))
    rows = rho0.any(axis=0).tolist()
    occupied = [i for i, row in enumerate(rows) if any(row) or any(r[i] for r in rows)]
    x = rho0.take(occupied, 1).take(occupied, 2)
    lift = np.zeros((1, dc, len(occupied)), dtype=complex)  # W_0: |0> off the system
    for column, i in enumerate(occupied):
        lift[0, i * blocks[2], column] = 1
    factors = [lift] * len(states)

    def weighted(i, w):  # W (I (x) X) of state i, as a (d_c, .) matrix
        return (w.reshape(-1, len(occupied)) @ x[i]).reshape(dc, -1)

    out[0] = rho0  # tr_env W_0 (I (x) X) W_0^dag, as rho0 is 0 off the occupied states
    base = steps + 1  # the first dense step; none if the run ends among the factor steps
    for n in range(steps + 1):  # factor steps, while W is narrower than the register
        if n:
            factors = [run_compiled(program, w) for w in factors]  # one kernel call per state
        if factors[0].shape[-1] >= dc:
            base = n
            break
        for i, w in enumerate(factors if n else ()):  # tr_env W (I (x) X) W^dag
            v = weighted(i, w).reshape(blocks[0], s, -1)  # rows: (before, system, after)
            np.einsum("bik,bjk->ij", v, w.conj().reshape(blocks[0], s, -1), out=out[n, i])
    buffer = np.empty((min(chunk, steps + 1 - base), len(states), dc, dc), dtype=complex)
    for i, w in enumerate(factors if base <= steps else ()):  # W (I (x) X) W^dag, formed once
        np.matmul(weighted(i, w), w[0].conj().T, out=buffer[0, i])
    for n in range(base, steps + 1):  # dense steps
        j = (n - base) % chunk  # slot j - 1 (the last one when j == 0) holds step n - 1
        for i in range(len(states)) if n > base else ():  # one kernel call per state
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
    with its step, so that long runs cannot silently drift.  Two observables
    with one name raise :class:`ValueError`.
    """
    if steps < 1:
        raise ValueError(f"step count {steps} must be >= 1")
    sys_dim = rho0_system.dim
    names = [obs.name for obs in observables]
    if len(set(names)) != len(names):
        raise ValueError(f"observable names {names} repeat a name")
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
    records = tuple(
        StepRecord(step=n, values=dict(zip(names, row)), trace=tr, purity=pu)
        for n, (row, tr, pu) in enumerate(zip(values, traces, purities))
    )
    return Trajectory(records=records)

"""Trajectory engine: repeated step application with per-step records."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuit import CALL_MACS, StepCircuit, compile_step, run_compiled, superoperator
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


@functools.cache
def projector_observable(name: str) -> Observable:
    """One of the builtin single-qubit population observables p0/p1/p+/p-, built once."""
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


_CHUNK_ENTRIES = 2**14  # entries of carried states that evolve reduces in one call


def _block(dc: int, slots: int) -> int:
    """Block size B of evolve's dense loop: it doubles while one more squaring of S (d_c^6
    multiply-adds, 42 us complex and 11.5 us real at d_c = 8) costs less than the kernel calls it
    saves in a chunk of ``slots``, filled with log2(B) + (slots - 1) // B products for B < slots."""
    b = 1
    while 2 * b < slots and dc**6 < ((slots - 1) // b - (slots - 1) // (2 * b) - 1) * CALL_MACS:
        b *= 2
    return b


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
    compile to the carried register (dim d_c).

    A state after n steps is W_n (I (x) X) W_n^dag: X is the block of rho0 on
    the m system basis states that the call's initial states occupy (a row or
    column not all zero), W_0 the ``(d_c, m)`` lift of those into the register
    and W_{n+1} = [K_1 W_n, .., K_r W_n].  While W has fewer than d_c columns
    the kernel maps W, one call per state, and the record is
    tr_env W (I (x) X) W^dag from the system rows of W.  Then W (I (x) X) W^dag
    is formed once (rho0 itself when W_0 fills the register) and the steps go
    on densely, into a chunk buffer of at most ``2**14`` entries, or
    one step's stack of carried states when that is larger, reduced
    by one partial trace per full (or last) chunk.  Its slot 0 is one kernel
    call on the slot before, written into the slot; slots f .. f + w - 1 are
    S^w times the w before, w the largest power of two <= min(f, B), in one
    product over all states.
    S = sum_j K_j (x) conj(K_j) is squared once per run up to S^B, with B
    from :func:`_block`; B = 1 (d_c >= 16) is one call per step.  W, S and
    the buffer are in the program's dtype; X is float64 when every rho0 is
    real.  A float64 program carries complex starts in its buffer as 2n real
    states, [Re rho_1 .. Re rho_n, Im rho_1 .. Im rho_n] for n = len(states):
    a real map sends Re rho and Im rho to the real and imaginary parts of its
    image, so each reduced chunk is written as re + 1j im.

    Returns the ``(steps + 1, len(states), s, s)`` stack, complex128 as the states, after one
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
    states = tuple(states)  # a one-shot iterable is read once
    for rho in states:
        if rho.layout != system:
            raise DimensionMismatchError(f"initial state layout {rho.layout} is not {system}")
    carried, *_ = program = compile_step(step)
    kept = [step.layout[i] for i in carried]  # system wires are always carried
    at = kept.index(system[0])
    blocks = (layout_dim(kept[:at]), layout_dim(system), layout_dim(kept[at + len(system):]))
    s, dc = blocks[1], layout_dim(kept)
    rho0 = np.reshape([rho.matrix for rho in states], (-1, s, s))
    try:
        out = np.empty((steps + 1, *rho0.shape), dtype=rho0.dtype)
    except ValueError as exc:  # a shape beyond numpy's index range
        raise MemoryError(str(exc)) from None
    if not len(states):
        return out
    if not rho0.imag.any():
        rho0 = rho0.real
    dtype = program[1].dtype
    split = dtype == np.float64 and rho0.dtype == np.complex128
    width = (1 + split) * len(states)  # states per buffer slot

    def halves(a):  # a stack of n as the buffer holds it: [Re a, Im a] when split
        return np.concatenate([a.real, a.imag]) if split else a

    chunk = max(1, _CHUNK_ENTRIES // (width * dc * dc))
    seen = rho0.any(axis=0)
    occupied = np.flatnonzero((seen | seen.T).any(axis=0))  # a row or a column not all zero
    x = rho0.take(occupied, 1).take(occupied, 2)
    lift = np.zeros((1, dc, len(occupied)), dtype=dtype)  # W_0: |0> off the system
    lift[0, occupied * blocks[2], range(len(occupied))] = 1
    factors = [lift] * len(states)

    def weighted(xi, w):  # W (I (x) X) as a (d_c, .) matrix; X is a scalar at m = 1
        if len(occupied) == 1:
            return (w * xi[0, 0]).reshape(dc, -1)
        return (w.reshape(-1, len(occupied)) @ xi).reshape(dc, -1)

    out[0] = rho0  # tr_env W_0 (I (x) X) W_0^dag, as rho0 is 0 off the occupied states
    base = steps + 1  # the first dense step; none if the run ends among the factor steps
    for n in range(steps + 1):  # factor steps, while W is narrower than the register
        if n:
            factors = [run_compiled(program, w) for w in factors]  # one kernel call per state
        if factors[0].shape[-1] >= dc:
            base = n
            break
        for i, w in enumerate(factors if n else ()):  # tr_env W (I (x) X) W^dag
            v = weighted(x[i], w).reshape(blocks[0], s, -1)  # rows: (before, system, after)
            out[n, i] = np.einsum("bik,bjk->ij", v, w.conj().reshape(blocks[0], s, -1))
    buffer = np.empty((min(chunk, steps + 1 - base), width, dc, dc), dtype=dtype)
    if base == 0:  # W_0 = I fills the register: the carried states are rho0
        buffer[0] = halves(rho0)
    for i, xi in enumerate(halves(x) if 0 < base <= steps else ()):  # W (I (x) X) W^dag, once
        w = factors[i % len(states)]
        np.matmul(weighted(xi, w), w[0].conj().T, out=buffer[0, i])
    block = _block(dc, len(buffer))
    powers = [superoperator(program[1]).T] if block > 1 else []  # S^T, (S^2)^T, .., (S^B)^T
    for _ in range(block.bit_length() - 1):
        powers.append(powers[-1] @ powers[-1])
    n, vec = base, (-1, dc * dc)  # a slot's states as rows vec(rho)^T
    while n <= steps:  # dense steps
        j = (n - base) % len(buffer)  # slot j - 1 (the last one when j == 0) holds step n - 1
        w = 1 << min(j or 1, block).bit_length() - 1
        m = min(w, len(buffer) - j, steps + 1 - n)
        if w > 1:  # slots j .. j + m - 1 are S^w of the slots w before them
            src, dst = buffer[j - w:j - w + m].reshape(vec), buffer[j:j + m].reshape(vec)
            np.matmul(src, powers[w.bit_length() - 1], out=dst)
        elif n > base:  # one kernel call for all states
            run_compiled(program, buffer[j - 1], out=buffer[j])
        n += m
        if j + m == len(buffer) or n > steps:
            reduced = partial_trace_matrix(buffer[:j + m], blocks, 0, 2)
            if split:
                reduced = reduced[:, :len(states)] + 1j * reduced[:, len(states):]
            out[n - j - m:n] = reduced
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

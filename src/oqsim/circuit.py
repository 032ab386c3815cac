"""Gate library and step-circuit builders.

A :class:`StepCircuit` describes one discrete time step of an open-system
evolution: an ordered list of gate applications, trace-resets and SWAPs
over a fixed wire layout.  Builders cover the coin-shift decomposition of
amplitude damping and dephasing, their k-order memory variants with a
SWAP-updated environment register, the sequential factor implementation
with a control qubit, and a plain dilation baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import channels as ch_mod
from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    Wire,
    as_complex_matrix,
    is_unitary,
    reset_factor,
    wire_index,
)


class BuilderError(ValueError):
    """A step circuit cannot be built from the given ingredients."""


class CircuitFormatError(ValueError):
    """Malformed circuit dump text."""


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    out = np.eye(2 * n, dtype=complex)
    out[n:, n:] = u
    return out


_FIXED_GATES = {
    "X": ch_mod.PAULI_X,
    "Y": ch_mod.PAULI_Y,
    "Z": ch_mod.PAULI_Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "CNOT": _controlled(ch_mod.PAULI_X),
    "CY": _controlled(ch_mod.PAULI_Y),
    "CZ": _controlled(ch_mod.PAULI_Z),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
_ROTATION_GATES = {"Ry": _ry, "CRy": lambda t: _controlled(_ry(t))}
_ALIASES = {"CX": "CNOT", "RY": "Ry", "CRY": "CRy"}


def _canonical_name(name: str) -> str:
    up = name.upper()
    if up in _ALIASES:
        return _ALIASES[up]
    for known in list(_FIXED_GATES) + list(_ROTATION_GATES):
        if known.upper() == up:
            return known
    raise BuilderError(f"unknown gate name {name!r}")


def standard_gate(name: str, theta: float | None = None) -> np.ndarray:
    """Canonical matrix of a named gate.

    ``Ry(theta)`` is ``[[cos t/2, -sin t/2], [sin t/2, cos t/2]]`` so that
    ``<1|Ry(theta)|0> = sin(theta/2)``.  Controlled gates put the control
    on the first (more significant) wire.
    """
    canon = _canonical_name(name)
    if canon in _ROTATION_GATES:
        if theta is None:
            raise BuilderError(f"gate {canon} requires theta")
        return _ROTATION_GATES[canon](float(theta))
    if theta is not None:
        raise BuilderError(f"gate {canon} takes no theta")
    return _FIXED_GATES[canon].copy()


class GateOp:
    """One directive of a step: a unitary application, trace-reset or swap."""

    __slots__ = ("kind", "wires", "name", "matrix", "theta")

    def __init__(self, kind, wires, name=None, matrix=None, theta=None):
        if kind not in ("unitary-apply", "trace-reset", "swap"):
            raise BuilderError(f"unknown op kind {kind!r}")
        wires = tuple(wires)
        if kind == "trace-reset" and len(wires) != 1:
            raise BuilderError("trace-reset targets exactly one wire")
        if kind == "swap" and len(wires) != 2:
            raise BuilderError("swap targets exactly two wires")
        if kind == "unitary-apply":
            if matrix is None:
                raise BuilderError("unitary-apply needs a matrix")
            matrix = as_complex_matrix(matrix)
            if not is_unitary(matrix):
                raise BuilderError(f"gate {name or '<anonymous>'} is not unitary")
            matrix = matrix.copy()
            matrix.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "theta", None if theta is None else float(theta))

    def __setattr__(self, name, value):
        raise AttributeError("GateOp is immutable")

    @classmethod
    def gate(cls, name: str, wires, theta: float | None = None) -> "GateOp":
        canon = _canonical_name(name)
        return cls(
            "unitary-apply",
            wires,
            name=canon,
            matrix=standard_gate(canon, theta),
            theta=theta,
        )

    @classmethod
    def reset(cls, wire: str) -> "GateOp":
        return cls("trace-reset", (wire,))

    @classmethod
    def swap(cls, a: str, b: str) -> "GateOp":
        return cls("swap", (a, b), name="SWAP", matrix=standard_gate("SWAP"))

    def __repr__(self):
        if self.kind == "trace-reset":
            return f"GateOp(reset {self.wires[0]})"
        extra = f", theta={self.theta!r}" if self.theta is not None else ""
        return f"GateOp({self.name or 'U'} on {self.wires}{extra})"


@dataclass(frozen=True)
class MemorySpec:
    """Memory order k and the storage angles theta^1..theta^k."""

    k: int
    thetas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if self.k < 1:
            raise BuilderError(f"memory order k={self.k} must be >= 1")
        if len(self.thetas) != self.k:
            raise BuilderError(
                f"{len(self.thetas)} angles given for memory order k={self.k}"
            )
        for t in self.thetas:
            if not 0.0 <= t < 2.0 * math.pi:
                raise BuilderError(f"angle {t} outside [0, 2*pi)")


class StepCircuit:
    """One discrete time step over a fixed register."""

    __slots__ = ("label", "layout", "system", "ops")

    def __init__(self, label: str, layout, system, ops):
        layout = tuple(layout)
        system = tuple(system)
        ops = tuple(ops)
        labels = [w.label for w in layout]
        if len(set(labels)) != len(labels):
            raise BuilderError(f"duplicate wire labels in layout {labels}")
        for s in system:
            if s not in labels:
                raise BuilderError(f"system wire {s!r} not in layout")
        for op in ops:
            for w in op.wires:
                if w not in labels:
                    raise BuilderError(f"op {op!r} references unknown wire {w!r}")
            if op.kind == "trace-reset" and op.wires[0] in system:
                raise BuilderError(f"trace-reset on system wire {op.wires[0]!r}")
            if op.kind == "unitary-apply":
                want = math.prod(layout[labels.index(w)].dim for w in op.wires)
                if op.matrix.shape[0] != want:
                    raise BuilderError(
                        f"op {op!r} matrix dim {op.matrix.shape[0]} != wires dim {want}"
                    )
            if op.kind == "swap":
                d0 = layout[labels.index(op.wires[0])].dim
                d1 = layout[labels.index(op.wires[1])].dim
                if d0 != d1:
                    raise BuilderError(f"swap between unequal dims {d0} and {d1}")
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "ops", ops)

    def __setattr__(self, name, value):
        raise AttributeError("StepCircuit is immutable")

    @property
    def wire_labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.layout)

    def __repr__(self):
        return f"StepCircuit({self.label!r}, wires={list(self.wire_labels)}, ops={len(self.ops)})"


_KINDS = ("amplitude-damping", "dephasing")


def build_markovian_step(kind: str, theta: float) -> StepCircuit:
    """Memoryless step on wires {q, e}: coin rotation, coupling, reset.

    Amplitude damping uses a controlled rotation from q onto e followed by
    a CNOT back from e; dephasing rotates e unconditionally and couples
    with a CZ.  The environment is traced out and reset each step.
    """
    if kind not in _KINDS:
        raise BuilderError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    if not 0.0 <= theta < 2.0 * math.pi:
        raise BuilderError(f"theta {theta} outside [0, 2*pi)")
    layout = (Wire("q"), Wire("e"))
    if kind == "amplitude-damping":
        ops = [
            GateOp.gate("CRy", ("q", "e"), theta),
            GateOp.gate("CNOT", ("e", "q")),
            GateOp.reset("e"),
        ]
    else:
        ops = [
            GateOp.gate("Ry", ("e",), theta),
            GateOp.gate("CZ", ("e", "q")),
            GateOp.reset("e"),
        ]
    return StepCircuit(f"markovian-{kind}", layout, ("q",), ops)


def build_nonmarkovian_step(kind: str, mem: MemorySpec) -> StepCircuit:
    """Memory step on wires {q, e_1..e_k}.

    Storage rotations write the current step's contribution of order i
    onto e_i (angle theta^i); the coupling gate acts from e_1; e_1 is then
    traced out, reset, and the SWAP chain shifts the register so that e_1
    carries the previous step's second-order content at the next step.
    """
    if kind not in _KINDS:
        raise BuilderError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    if mem.k < 2:
        raise BuilderError("memory order k must be >= 2 (k=1 is the memoryless step)")
    env = [f"e{i}" for i in range(1, mem.k + 1)]
    layout = (Wire("q"),) + tuple(Wire(e) for e in env)
    ops = []
    for i, theta in enumerate(mem.thetas):
        if kind == "amplitude-damping":
            ops.append(GateOp.gate("CRy", ("q", env[i]), theta))
        else:
            ops.append(GateOp.gate("Ry", (env[i],), theta))
    coupling = "CNOT" if kind == "amplitude-damping" else "CZ"
    ops.append(GateOp.gate(coupling, (env[0], "q")))
    ops.append(GateOp.reset(env[0]))
    for i in range(mem.k - 1):
        ops.append(GateOp.swap(env[i], env[i + 1]))
    return StepCircuit(f"nonmarkovian-{kind}-k{mem.k}", layout, ("q",), ops)


_PAULI_NAMES = (("X", ch_mod.PAULI_X), ("Y", ch_mod.PAULI_Y), ("Z", ch_mod.PAULI_Z))


def _coupling_op(unitary: np.ndarray, wires) -> GateOp | None:
    """Controlled application of a factor's unitary part, named when a Pauli.

    A global phase on the unitary part is irrelevant once the branch
    decoheres, so it is folded away before matching.
    """
    for name, pauli in (("I", ch_mod.PAULI_I),) + _PAULI_NAMES:
        overlap = np.trace(pauli.conj().T @ unitary) / 2.0
        if abs(abs(overlap) - 1.0) < 1e-10 and np.allclose(
            unitary, overlap * pauli, atol=1e-10
        ):
            if name == "I":
                return None
            return GateOp.gate("C" + name if name != "X" else "CNOT", wires)
    return GateOp(
        "unitary-apply", wires, name=None, matrix=_controlled(unitary), theta=None
    )


def build_sequential_step(
    ch: ch_mod.KrausChannel, mem: MemorySpec | None = None
) -> StepCircuit:
    """Apply a channel's Kraus operators one at a time on wires {c, q, e}.

    Each operator must be a scaled unitary ``w U``.  Per factor: a rotation
    on e conditioned on the live flag c prepares amplitude w, the unitary
    part is applied to q controlled on e, and e flips c out of the live
    branch before its reset, so later factors act only where no earlier
    operator fired.  Factors whose unitary part is the identity are exact
    identity maps and emit no gates.  c starts each step raised by an X
    and is traced out at the end; the ancilla count stays at 2 however
    many operators the channel has.

    With a memory spec, uncontrolled storage rotations with angles
    theta^2..theta^k act on extra wires e_2..e_k and the SWAP chain shifts
    them after the factor loop, mirroring the memory variant of the named
    builders.
    """
    if ch.dim != 2:
        raise BuilderError("sequential steps support single-qubit channels only")
    report = ch_mod.validate(ch)
    if not report.passed:
        raise BuilderError(
            f"channel {ch.label!r} completeness deviation {report.deviation:.3e} "
            f"exceeds {ch_mod.COMPLETENESS_ATOL}"
        )
    parts = []
    for i, op in enumerate(ch.operators):
        split = ch_mod.scaled_unitary_part(op)
        if split is None:
            raise BuilderError(
                f"operator {i} of {ch.label!r} is not a scaled unitary; "
                "use stinespring_dilate for general channels"
            )
        parts.append(split)
    k = mem.k if mem is not None else 1
    env = [f"e{i}" for i in range(1, k + 1)] if k > 1 else ["e"]
    layout = (Wire("c"), Wire("q")) + tuple(Wire(e) for e in env)
    coupling_wire = env[0]
    ops = [GateOp.gate("X", ("c",))]
    if mem is not None:
        for i in range(1, k):
            ops.append(GateOp.gate("Ry", (env[i],), mem.thetas[i]))
    for w, unitary in parts:
        coupling = _coupling_op(unitary, (coupling_wire, "q"))
        if coupling is None:
            continue
        theta = 2.0 * math.asin(min(max(w, 0.0), 1.0))
        ops.append(GateOp.gate("CRy", ("c", coupling_wire), theta))
        ops.append(coupling)
        ops.append(GateOp.gate("CNOT", (coupling_wire, "c")))
        ops.append(GateOp.reset(coupling_wire))
    if mem is not None:
        for i in range(k - 1):
            ops.append(GateOp.swap(env[i], env[i + 1]))
    ops.append(GateOp.reset("c"))
    return StepCircuit(f"sequential-{ch.label}", layout, ("q",), ops)


def build_dilation_step(ch: ch_mod.KrausChannel) -> StepCircuit:
    """Baseline step: the full dilation unitary plus environment resets.

    The environment register needs ceil(log2 l) qubits, against the
    constant two ancillas of the sequential builder.
    """
    u = ch_mod.stinespring_dilate(ch)
    sys_qubits = int(round(math.log2(ch.dim)))
    if 2**sys_qubits != ch.dim:
        raise BuilderError(f"channel dim {ch.dim} is not a power of two")
    ed = ch_mod.environment_dim(len(ch.operators))
    env_qubits = int(round(math.log2(ed)))
    env = [f"e{i}" for i in range(1, env_qubits + 1)]
    layout = (Wire("q", ch.dim),) + tuple(Wire(e) for e in env)
    ops = [
        GateOp("unitary-apply", ("q",) + tuple(env), name=None, matrix=u, theta=None)
    ]
    for e in env:
        ops.append(GateOp.reset(e))
    return StepCircuit(f"dilation-{ch.label}", layout, ("q",), ops)


def _swap_index(dims, a: int, b: int) -> np.ndarray:
    """Flat-index gather that swaps the equal-dim factors at ``a`` and ``b``."""
    return np.arange(math.prod(dims)).reshape(dims).swapaxes(a, b).reshape(-1)


def _apply_rows(u: np.ndarray, gate: np.ndarray, positions, dims) -> np.ndarray:
    """``gate`` on the factors at ``positions`` times ``u``, touching those rows only."""
    m = len(positions)
    g = gate.reshape([dims[p] for p in positions] * 2)
    t = np.tensordot(g, u.reshape(dims + [u.shape[1]]), axes=(range(m, 2 * m), positions))
    return np.moveaxis(t, range(m), positions).reshape(u.shape)


def _fuse(ops, layout, dims):
    """One program entry for a run of gates and swaps with no reset inside."""
    acc = np.arange(math.prod(dims))  # a row gather until the first gate
    for op in ops:
        positions = [wire_index(layout, w) for w in op.wires]
        if op.kind == "swap":
            acc = acc[_swap_index(dims, *positions)]
            continue
        if acc.ndim == 1:
            acc = np.eye(acc.size, dtype=complex)[acc]
        acc = _apply_rows(acc, op.matrix, positions, dims)
    return ("unitary" if acc.ndim == 2 else "permute", acc)


def compile_step(step: StepCircuit):
    """Compile a step into ``(dims, program)`` for :func:`run_compiled`.

    Each maximal run of gates and swaps between resets becomes one entry:
    ``("unitary", U)``, the run's product, built gate by gate on the rows of
    its own wires (a swap reindexes the rows) and applied as ``U rho U^dag``;
    or, for swaps only, ``("permute", idx)``, applied as ``rho[idx][:, idx]``.
    A reset stays ``("reset", axis)`` for :func:`qmath.reset_factor`.
    """
    dims = [w.dim for w in step.layout]
    program = []
    for is_reset, ops in groupby(step.ops, key=lambda op: op.kind == "trace-reset"):
        if is_reset:
            program += [("reset", wire_index(step.layout, op.wires[0])) for op in ops]
        else:
            program.append(_fuse(ops, step.layout, dims))
    return dims, program


def run_compiled(compiled, dims, matrix: np.ndarray) -> np.ndarray:
    for kind, payload in compiled:
        if kind == "unitary":
            matrix = payload @ matrix @ payload.conj().T
        elif kind == "permute":
            matrix = matrix[np.ix_(payload, payload)]
        else:
            matrix = reset_factor(matrix, dims, payload)
    return matrix


def apply_step(step: StepCircuit, rho: DensityMatrix) -> DensityMatrix:
    """Execute every op of the step on a state over the step's full layout."""
    if rho.layout != step.layout:
        raise DimensionMismatchError(
            f"state layout {rho.wire_labels} does not match step layout "
            f"{step.wire_labels}"
        )
    dims, compiled = compile_step(step)
    return DensityMatrix(run_compiled(compiled, dims, rho.matrix), step.layout)


def dump_circuit(step: StepCircuit) -> str:
    """Line-oriented text form of a step circuit.

    Header lines carry the label, wire layout and system wires; then one
    op per line: ``GATE name wires.. [theta]``, ``RESET wire`` or
    ``SWAP w1 w2``.  Gates without a library name cannot be dumped.
    """
    lines = [f"LABEL {step.label}"]
    lines.append("WIRES " + " ".join(f"{w.label}:{w.dim}" for w in step.layout))
    lines.append("SYSTEM " + " ".join(step.system))
    for op in step.ops:
        if op.kind == "trace-reset":
            lines.append(f"RESET {op.wires[0]}")
        elif op.kind == "swap":
            lines.append(f"SWAP {op.wires[0]} {op.wires[1]}")
        else:
            if op.name is None:
                raise CircuitFormatError(
                    f"op {op!r} has no gate name and cannot be serialized"
                )
            parts = ["GATE", op.name, *op.wires]
            if op.theta is not None:
                parts.append(repr(op.theta))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> StepCircuit:
    """Inverse of :func:`dump_circuit`."""
    label = ""
    layout = None
    system = None
    header_lines = {}
    ops = []
    op_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        head, rest = fields[0].upper(), fields[1:]
        try:
            if head == "LABEL":
                label = " ".join(rest)
            elif head == "WIRES":
                parsed = []
                for item in rest:
                    wl, _, wd = item.partition(":")
                    parsed.append(Wire(wl, int(wd) if wd else 2))
                layout = tuple(parsed)
                header_lines["WIRES"] = ln
            elif head == "SYSTEM":
                system = tuple(rest)
                header_lines["SYSTEM"] = ln
            elif head == "RESET":
                (wire,) = rest
                ops.append(GateOp.reset(wire))
            elif head == "SWAP":
                a, b = rest
                ops.append(GateOp.swap(a, b))
            elif head == "GATE":
                name, *wires = rest
                rotation = _canonical_name(name) in _ROTATION_GATES
                theta = float(wires.pop()) if rotation else None
                ops.append(GateOp.gate(name, tuple(wires), theta))
                if 2 ** len(wires) != ops[-1].matrix.shape[0]:
                    raise CircuitFormatError(f"gate {name} given {len(wires)} wires")
            else:
                raise CircuitFormatError(f"unknown directive {head!r}")
        except (ValueError, IndexError, BuilderError) as exc:
            raise CircuitFormatError(f"line {ln}: {exc}") from exc
        if len(ops) > len(op_lines):
            op_lines.append(ln)
    if layout is None or system is None:
        raise CircuitFormatError("missing WIRES or SYSTEM header line")
    # the header first, then each op against it, wherever the lines stand
    checks = [(header_lines["WIRES"], (), ()), (header_lines["SYSTEM"], system, ())]
    checks += [(ln, system, (op,)) for ln, op in zip(op_lines, ops)]
    for ln, sys_wires, some_ops in checks:
        try:
            StepCircuit(label, layout, sys_wires, some_ops)
        except BuilderError as exc:
            raise CircuitFormatError(f"line {ln}: {exc}") from exc
    return StepCircuit(label, layout, system, ops)


def same_circuit(a: StepCircuit, b: StepCircuit) -> bool:
    """Structural equality, with exact matrix comparison."""
    if a.label != b.label or a.layout != b.layout or a.system != b.system:
        return False
    if len(a.ops) != len(b.ops):
        return False
    for x, y in zip(a.ops, b.ops):
        if (x.kind, x.wires, x.name, x.theta) != (y.kind, y.wires, y.name, y.theta):
            return False
        if (x.matrix is None) != (y.matrix is None):
            return False
        if x.matrix is not None and not np.array_equal(x.matrix, y.matrix):
            return False
    return True

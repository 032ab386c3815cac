"""Gate library and step-circuit builders.

A :class:`StepCircuit` describes one discrete time step of an open-system
evolution: an ordered list of gate applications, trace-resets and SWAPs
over a fixed wire layout.  Builders cover the coin-shift decomposition of
amplitude damping and dephasing, their k-order memory variants with a
SWAP-updated environment register, the sequential factor implementation
with a control qubit, and a plain dilation baseline.  A step dumps to
JSON text that parses back to the same circuit, whatever its labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch_mod
from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    Wire,
    as_complex_matrix,
    complex_pairs,
    is_unitary,
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
    """One directive of a step: a unitary application, trace-reset or swap.

    A named gate takes its matrix from :func:`standard_gate`; an op keeps only
    the fields its kind uses (a swap is named ``SWAP``), so it dumps exactly.
    """

    __slots__ = ("kind", "wires", "name", "matrix", "theta")

    def __init__(self, kind, wires, name=None, matrix=None, theta=None):
        if kind not in ("unitary-apply", "trace-reset", "swap"):
            raise BuilderError(f"unknown op kind {kind!r}")
        wires = tuple(wires)
        if kind == "trace-reset" and len(wires) != 1:
            raise BuilderError("trace-reset targets exactly one wire")
        if kind == "swap" and len(wires) != 2:
            raise BuilderError("swap targets exactly two wires")
        if name is not None:
            canon, library = _canonical_name(name), standard_gate(name, theta)
            if canon != name:
                raise BuilderError(f"gate name {name!r} is not canonical; use {canon!r}")
            if matrix is not None and not np.array_equal(as_complex_matrix(matrix), library):
                raise BuilderError(f"gate {name} given a matrix other than its library matrix")
            matrix = library
        if kind != "unitary-apply":
            name, matrix, theta = ("SWAP" if kind == "swap" else None), None, None
        elif matrix is None:
            raise BuilderError("unitary-apply needs a matrix")
        else:
            matrix = as_complex_matrix(matrix).copy()
            if not is_unitary(matrix):
                raise BuilderError(f"gate {name or '<anonymous>'} is not unitary")
            matrix.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "theta", None if theta is None or name is None else float(theta))

    def __setattr__(self, name, value):
        raise AttributeError("GateOp is immutable")

    @classmethod
    def gate(cls, name: str, wires, theta: float | None = None) -> "GateOp":
        return cls("unitary-apply", wires, name=_canonical_name(name), theta=theta)

    @classmethod
    def reset(cls, wire: str) -> "GateOp":
        return cls("trace-reset", (wire,))

    @classmethod
    def swap(cls, a: str, b: str) -> "GateOp":
        return cls("swap", (a, b))

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
        for w in layout:
            if w.dim < 1:
                raise BuilderError(f"wire {w.label!r} has dim {w.dim} < 1")
        for s in system:
            if s not in labels:
                raise BuilderError(f"system wire {s!r} not in layout")
        for op in ops:
            if len(set(op.wires)) != len(op.wires):
                raise BuilderError(f"op {op!r} names a wire twice")
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
                if op.name is not None and 2 ** len(op.wires) != op.matrix.shape[0]:
                    raise BuilderError(f"gate {op.name} given {len(op.wires)} wires")
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


# kind -> (controls of the storage rotation on e_i, that rotation, coupling from e_1 onto q)
_COIN_GATES = {"amplitude-damping": (("q",), "CRy", "CNOT"), "dephasing": ((), "Ry", "CZ")}


def _check_kind(kind: str) -> None:
    if kind not in _COIN_GATES:
        raise BuilderError(f"unknown kind {kind!r}; expected one of {tuple(_COIN_GATES)}")


def _coin_step(kind: str, thetas, label: str) -> StepCircuit:
    """Coin step on q and e_1..e_k, k = len(thetas); k=1 is the memoryless step, on wire e.
    After the reset, SWAPs shift the register so e_{i+1}'s content moves onto e_i."""
    controls, storage, coupling = _COIN_GATES[kind]
    env = [f"e{i}" for i in range(1, len(thetas) + 1)] if len(thetas) > 1 else ["e"]
    ops = [GateOp.gate(storage, controls + (e,), t) for e, t in zip(env, thetas)]
    ops += [GateOp.gate(coupling, (env[0], "q")), GateOp.reset(env[0])]
    ops += [GateOp.swap(a, b) for a, b in zip(env, env[1:])]
    return StepCircuit(label, tuple(Wire(w) for w in ("q", *env)), ("q",), ops)


def build_markovian_step(kind: str, theta: float) -> StepCircuit:
    """Memoryless step on wires {q, e}: coin rotation, coupling, reset.

    Amplitude damping uses a controlled rotation from q onto e followed by
    a CNOT back from e; dephasing rotates e unconditionally and couples
    with a CZ.  The environment is traced out and reset each step.
    """
    _check_kind(kind)
    if not 0.0 <= theta < 2.0 * math.pi:
        raise BuilderError(f"theta {theta} outside [0, 2*pi)")
    return _coin_step(kind, (theta,), f"markovian-{kind}")


def build_nonmarkovian_step(kind: str, mem: MemorySpec) -> StepCircuit:
    """Memory step on wires {q, e_1..e_k}.

    Storage rotations write the current step's contribution of order i
    onto e_i (angle theta^i); the coupling gate acts from e_1; e_1 is then
    traced out, reset, and the SWAP chain shifts the register so that e_1
    carries the previous step's second-order content at the next step.
    """
    _check_kind(kind)
    if mem.k < 2:
        raise BuilderError("memory order k must be >= 2 (k=1 is the memoryless step)")
    return _coin_step(kind, mem.thetas, f"nonmarkovian-{kind}-k{mem.k}")


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


def build_sequential_step(ch: ch_mod.KrausChannel) -> StepCircuit:
    """Apply a channel's Kraus operators one at a time on wires {c, q, e}.

    Each operator must be a scaled unitary ``w U``.  Per factor: a rotation
    on e conditioned on the live flag c prepares amplitude w / sqrt(live),
    the unitary part is applied to q controlled on e, and e flips c out of
    the live branch before its reset, so later factors act only where no
    earlier operator fired.  The live branch holds live = 1 - sum of the
    earlier w^2, so every operator fires with weight exactly w.  Factors
    whose unitary part is the identity emit no gates and take what is left
    on the live branch.  c starts each step raised by an X and is traced
    out at the end; the ancilla count stays at 2 however many operators the
    channel has.
    """
    if ch.dim != 2:
        raise BuilderError("sequential steps support single-qubit channels only")
    parts = []
    for i, op in enumerate(ch.operators):
        split = ch_mod.scaled_unitary_part(op)
        if split is None:
            raise BuilderError(
                f"operator {i} of {ch.label!r} is not a scaled unitary; "
                "use stinespring_dilate for general channels"
            )
        parts.append(split)
    ops = [GateOp.gate("X", ("c",))]
    live = 1.0  # squared amplitude left on the branch where no factor has fired
    for w, unitary in parts:
        coupling = _coupling_op(unitary, ("e", "q"))
        if coupling is None:
            continue
        theta = 2.0 * math.asin(min(w / math.sqrt(live), 1.0) if live > 0.0 else 1.0)
        live -= w * w
        ops.append(GateOp.gate("CRy", ("c", "e"), theta))
        ops.append(coupling)
        ops.append(GateOp.gate("CNOT", ("e", "c")))
        ops.append(GateOp.reset("e"))
    ops.append(GateOp.reset("c"))
    layout = tuple(Wire(w) for w in ("c", "q", "e"))
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


def _fresh(step: StepCircuit) -> list[int]:
    """Positions of the non-system wires a step leaves in |0>: each one's last
    reset, followed through the swaps after it, with no gate on it since."""
    zero = dict.fromkeys(step.wire_labels, False)
    for op in step.ops:
        if op.kind == "swap":
            a, b = op.wires
            zero[a], zero[b] = zero[b], zero[a]
        else:
            zero.update(dict.fromkeys(op.wires, op.kind == "trace-reset"))
    return [i for i, w in enumerate(step.wire_labels) if zero[w] and w not in step.system]


def _apply_rows(t: np.ndarray, gate: np.ndarray, wires, live: list, dims) -> np.ndarray:
    """``gate`` on ``wires`` of an operator tensor whose row axes hold the ``live`` wires, touching
    those axes only.  A wire not in ``live`` is in |0>: only the gate's columns for its value 0
    act, and it gets a row axis, appended to the rows and to ``live``."""
    m, held = len(wires), [w for w in wires if w in live]
    inputs = [slice(None) if w in live else 0 for w in wires]  # value 0 of a wire in |0>
    g = gate.reshape([dims[w] for w in wires] * 2)[(..., *inputs)]
    t = np.tensordot(g, t, axes=(range(m, m + len(held)), [live.index(w) for w in held]))
    live += [w for w in wires if w not in live]
    return np.moveaxis(t, range(m), [live.index(w) for w in wires])


def _compress(acc: np.ndarray, dc: int) -> np.ndarray:
    """At most ``rows * dc`` operators for the map of an operator tensor with ``rows`` row entries:
    the map is fixed by sum_j vec(K_j) vec(K_j)^dag, which R of a QR of the rows vec(K_j) keeps."""
    rows, r = math.prod(acc.shape[:-1]), acc.shape[-1] // dc
    if r <= rows * dc:
        return acc
    kept = np.linalg.qr(acc.reshape(rows, r, dc).transpose(1, 0, 2).reshape(r, -1), mode="r")
    return kept.reshape(-1, rows, dc).transpose(1, 0, 2).reshape(acc.shape[:-1] + (-1,))


def compile_step(step: StepCircuit, full: bool = False):
    """Compile a step into ``(carried, kraus, adjoints, superop)``, its Kraus map on the wires
    that carry state, for :func:`run_compiled`.

    Given |0> on the wires a step leaves in |0> (:func:`_fresh`), it maps a state rho on the
    others, the ``carried`` wire positions (all with ``full``), of dim d_c, to
    sum_j K_j rho K_j^dag.  One walk of the ops builds the K_j as a tensor with a row axis for
    each wire not known to be in |0> and r d_c columns, from the identity on the carried
    wires: a gate first gives its wires in |0> an axis at value 0, a swap swaps two wires'
    labels, a reset moves its wire's axis into the operator index.  The stack is compressed
    whenever r exceeds the live rows times d_c, and at the end, with the carried axes in
    layout order, to r <= d_c^2.  ``kraus`` is K, ``(r, d_c, d_c)``; ``adjoints`` the K_j^dag
    stacked, ``(r d_c, d_c)``; ``superop`` sum_j K_j (x) conj(K_j) on the row-major vec(rho)
    when d_c <= r makes it the smaller product, else None.  A d_c too large to allocate
    raises :class:`MemoryError`.
    """
    dims = [w.dim for w in step.layout]
    fresh = () if full else _fresh(step)
    carried = tuple(i for i in range(len(dims)) if i not in fresh)
    dc = math.prod(dims[i] for i in carried)
    live = list(carried)  # the wire of each row axis
    try:
        acc = np.eye(dc, dtype=complex).reshape([dims[i] for i in carried] + [dc])
    except ValueError as exc:  # a shape beyond numpy's index range
        raise MemoryError(str(exc)) from None
    for op in step.ops:
        positions = [wire_index(step.layout, w) for w in op.wires]
        if op.kind == "unitary-apply":
            acc = _apply_rows(acc, op.matrix, positions, live, dims)
        elif op.kind == "swap":
            a, b = positions
            live = [b if w == a else a if w == b else w for w in live]
        elif positions[0] in live:  # its axis goes next to the columns, then into them
            a = live.index(positions[0])
            t = acc.transpose([*range(a), *range(a + 1, acc.ndim - 1), a, -1])
            del live[a]
            acc = _compress(t.reshape(t.shape[:-2] + (-1,)), dc)
    at_zero = [w for w in carried if w not in live]  # carried wires that end in |0>
    if at_zero:
        acc = _apply_rows(acc, np.eye(math.prod(dims[w] for w in at_zero)), at_zero, live, dims)
    acc = acc.transpose([live.index(w) for w in carried] + [-1])
    acc = _compress(acc.reshape(dc, -1), dc)
    kraus = acc.reshape(dc, -1, dc).transpose(1, 0, 2).copy()
    adjoints = np.conj(kraus.transpose(0, 2, 1), order="C").reshape(-1, dc)
    if dc > len(kraus):
        return carried, kraus, adjoints, None
    superop = np.einsum("rij,rkl->ikjl", kraus, kraus.conj())
    return carried, kraus, adjoints, superop.reshape(dc * dc, -1)


def run_compiled(program, states: np.ndarray) -> np.ndarray:
    """One step on an ``(n, d_c, m)`` stack.  A square stack (m = d_c) holds carried states:
    a batched product with the superoperator, or one ``(r d_c x d_c)`` product giving every
    K_j rho, one transpose copy that sets them side by side and one ``(d_c x r d_c)`` product
    with the adjoints.  A narrower stack (m < d_c) holds factors W of states W X W^dag: it
    takes the first two of those three and returns the ``(n, d_c, r m)`` factors
    [K_1 W, .., K_r W], exactly, since sum_j K_j W X W^dag K_j^dag is
    [K_1 W, .., K_r W] (I_r (x) X) [K_1 W, .., K_r W]^dag."""
    _, kraus, adjoints, superop = program
    n, dc, m = states.shape
    if superop is not None and m == dc:
        return (superop @ states.reshape(n, dc * dc, 1)).reshape(states.shape)
    side = (kraus.reshape(-1, dc) @ states).reshape(n, -1, dc, m).transpose(0, 2, 1, 3)
    side = side.reshape(n, dc, -1)
    return side if m < dc else side @ adjoints


def apply_step(step: StepCircuit, rho: DensityMatrix) -> DensityMatrix:
    """Execute every op of the step on a state over the step's full layout."""
    if rho.layout != step.layout:
        raise DimensionMismatchError(
            f"state layout {rho.wire_labels} does not match step layout "
            f"{step.wire_labels}"
        )
    out = run_compiled(compile_step(step, full=True), rho.matrix[np.newaxis])
    return DensityMatrix(out[0], step.layout)


def _op_entry(op: GateOp) -> list:
    if op.kind != "unitary-apply":
        return ["RESET" if op.kind == "trace-reset" else "SWAP", *op.wires]
    if op.name is None:
        return ["UNITARY", list(op.wires), op.matrix.view(float).reshape(-1, 2).tolist()]
    return ["GATE", op.name, list(op.wires), *([] if op.theta is None else [op.theta])]


def dump_circuit(step: StepCircuit) -> str:
    """JSON text of a step, one op entry per line: ``["GATE", name, [wires], theta?]``,
    ``["RESET", wire]``, ``["SWAP", a, b]`` or ``["UNITARY", [wires], [[re, im], ..]]``."""
    wires = [[w.label, w.dim] for w in step.layout]
    head = json.dumps({"label": step.label, "wires": wires, "system": list(step.system)})
    ops = ",".join("\n" + json.dumps(_op_entry(op)) for op in step.ops)
    return f'{head[:-1]}, "ops": [{ops}\n]}}\n'


def _labels(value) -> bool:
    return isinstance(value, list) and all(type(v) is str for v in value)


def _op(entry) -> GateOp:
    match entry:
        case ["RESET", str(wire)]:
            return GateOp.reset(wire)
        case ["SWAP", str(a), str(b)]:
            return GateOp.swap(a, b)
        case ["GATE", str(name), wires] if _labels(wires):
            return GateOp("unitary-apply", wires, name=name)
        case ["GATE", str(name), wires, int() | float() as theta] if (
            _labels(wires) and type(theta) is not bool
        ):
            return GateOp("unitary-apply", wires, name=name, theta=theta)
        case ["UNITARY", wires, list(entries)] if _labels(wires):
            try:
                flat = np.array(complex_pairs(entries))
            except (TypeError, ValueError):
                raise CircuitFormatError("unitary entries must be [re, im] number pairs") from None
            n = math.isqrt(flat.size)
            if n == 0 or n * n != flat.size:
                raise CircuitFormatError(f"unitary is empty or not square: {flat.size} entries")
            return GateOp("unitary-apply", wires, matrix=flat.reshape(n, n))
    raise CircuitFormatError(f"expected a GATE, RESET, SWAP or UNITARY entry, got {entry!r:.80}")


def parse_circuit(text: str) -> StepCircuit:
    """Inverse of :func:`dump_circuit`; malformed text raises :class:`CircuitFormatError`."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CircuitFormatError(str(exc)) from None
    if not (
        isinstance(obj, dict) and set(obj) == {"label", "wires", "system", "ops"}
        and isinstance(obj["label"], str) and isinstance(obj["ops"], list)
        and _labels(obj["system"]) and isinstance(obj["wires"], list)
        and all(isinstance(w, list) and [type(x) for x in w] == [str, int] for w in obj["wires"])
    ):
        raise CircuitFormatError(
            'expected {"label": str, "wires": [[str, int], ..], "system": [str, ..], "ops": [..]}'
        )
    ops = []
    for i, entry in enumerate(obj["ops"]):
        try:
            ops.append(_op(entry))
        except (ValueError, OverflowError) as exc:
            raise CircuitFormatError(f"op {i}: {exc}") from exc
    try:
        return StepCircuit(obj["label"], [Wire(*w) for w in obj["wires"]], obj["system"], ops)
    except BuilderError as exc:
        raise CircuitFormatError(str(exc)) from exc


def same_circuit(a: StepCircuit, b: StepCircuit) -> bool:
    """Structural equality, with exact matrix comparison."""
    if (a.label, a.layout, a.system, len(a.ops)) != (b.label, b.layout, b.system, len(b.ops)):
        return False
    return all(
        (x.kind, x.wires, x.name, x.theta) == (y.kind, y.wires, y.name, y.theta)
        and np.array_equal(x.matrix, y.matrix)
        for x, y in zip(a.ops, b.ops)
    )

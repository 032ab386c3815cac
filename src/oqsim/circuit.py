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
import operator
import os
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
_CANONICAL = {n.upper(): n for n in (*_FIXED_GATES, *_ROTATION_GATES)} | {"CX": "CNOT"}


def _canonical_name(name: str) -> str:
    canon = _CANONICAL.get(name.upper())
    if canon is None:
        raise BuilderError(f"unknown gate name {name!r}")
    return canon


def standard_gate(name: str, theta: float | None = None) -> np.ndarray:
    """Canonical matrix of a named gate.

    ``Ry(theta)`` is ``[[cos t/2, -sin t/2], [sin t/2, cos t/2]]`` so that
    ``<1|Ry(theta)|0> = sin(theta/2)``.  Controlled gates put the control
    on the first (more significant) wire.  A non-finite theta raises :class:`BuilderError`.
    """
    canon = _canonical_name(name)
    if canon in _ROTATION_GATES:
        if theta is None:
            raise BuilderError(f"gate {canon} requires theta")
        if not math.isfinite(theta := float(theta)):
            raise BuilderError(f"gate {canon} angle {theta} is not finite")
        return _ROTATION_GATES[canon](theta)
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
            if name is None:  # a library matrix is fresh, complex and unitary as built
                matrix = as_complex_matrix(matrix).copy()
                if not is_unitary(matrix):
                    raise BuilderError("gate <anonymous> is not unitary")
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


def build_sequential_step(ch: ch_mod.KrausChannel) -> StepCircuit:
    """Apply a channel's Kraus operators one at a time on wires {c, q, e}.

    One backward QR sweep factors the operators: from G_l = 0, for i = l .. 1,
    [G_i; K_i] = Q_i R_i and G_{i-1} = R_i, the first R's diagonal made real
    and positive so that G_0 = I for a complete set.  Factor i applies, on the
    live branch c = 1, the unitary on (e, q) whose |0>_e columns are Q_i (a
    complete QR gives it whole); e then flips c out of the live branch before
    its reset.  With Q_i^0 and Q_i^1 the e = 0 and e = 1 rows of those columns,
    the products telescope to Q_i^1 Q_{i-1}^0 .. Q_1^0 = K_i, so operator i
    fires exactly once, where no earlier one fired, for any complete set (Q_i
    is an isometry even when [G_i; K_i] is rank-deficient).  c starts each step
    raised by an X and is traced out at the end: 3l + 2 ops on 3 qubits however
    many operators the channel has.
    """
    if ch.dim != 2:
        raise BuilderError("sequential steps support single-qubit channels only")
    factors, g = [], np.zeros((2, 2), dtype=complex)
    for op in reversed(ch.operators):
        q, r = np.linalg.qr(np.vstack([g, op]), mode="complete")
        factors.append(q)
        g = r[:2]
    phase = np.diagonal(g) / np.abs(np.diagonal(g))
    factors[-1][:, :2] *= phase  # G_0 = diag(conj(phase)) R_1 is I within rounding
    ops = [GateOp.gate("X", ("c",))]
    for q in reversed(factors):
        ops.append(GateOp("unitary-apply", ("c", "e", "q"), matrix=_controlled(q)))
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
    zero = dict.fromkeys(labels := step.wire_labels, False)
    for op in step.ops:
        if op.kind == "swap":
            a, b = op.wires
            zero[a], zero[b] = zero[b], zero[a]
        else:
            for w in op.wires:
                zero[w] = op.kind == "trace-reset"
    return [i for i, w in enumerate(labels) if zero[w] and w not in step.system]


def _plan(wires: list, dims, reuse: bool = False) -> tuple:
    """A gate on the row axes ``wires`` (its order) of a tensor with one row axis per wire and a
    column axis last: ``(axes, pick, full, order, inverse, outs, reorder, gathers)``.  ``pick``
    reads the axes from a shape, ``full`` and ``outs`` are their dims, ``order`` brings them to
    the front and ``inverse`` takes them back.  A ``reuse`` plan acts in layout order: the axes
    sorted, ``reorder`` puts the gate's basis in their order, and ``gathers`` keeps a ``take``
    index of :func:`_columns` per input shape."""
    reorder = None
    if reuse and wires != (axes := sorted(wires)):
        own = [wires.index(w) for w in axes]
        reorder, wires = ([dims[w] for w in wires] * 2, own + [len(wires) + i for i in own]), axes
    order = [*wires, *[i for i in range(len(dims) + 1) if i not in wires]]
    inverse = [0] * len(order)
    for i, axis in enumerate(order):
        inverse[axis] = i
    pick, outs = operator.itemgetter(*wires), tuple([dims[w] for w in wires])
    return wires, pick, pick(dims), order, inverse, outs, reorder, {} if reuse else None


def _columns(gate: np.ndarray, plan: tuple, shape: tuple) -> np.ndarray:
    """``gate`` in its plan's axis order, only its columns for the axis lengths in ``shape``."""
    axes, pick, full, _, _, outs, reorder, _ = plan
    g = gate.reshape(reorder[0]).transpose(reorder[1]) if reorder else gate.reshape(outs * 2)
    if pick(shape) != full:
        g = g[(..., *map(slice, [shape[w] for w in axes]))]
    return g.reshape(len(gate), -1)


def _apply_rows(t: np.ndarray, gate: np.ndarray, plan: tuple) -> np.ndarray:
    """``gate`` on the wires of ``plan`` (:func:`_plan`) in an operator tensor with one row axis
    per wire: the gate's columns for the axis lengths in ``t`` (a wire in |0> has 1 and leaves
    with its full axis) in the plan's order, by a cached ``take`` on a reuse; the axes go to the
    front (a view), one ``(g_out x g_in) @ (g_in x rest)`` product, and back."""
    axes, pick, full, order, inverse, outs, reorder, gathers = plan
    ins = pick(t.shape)
    if gathers is not None and (reorder or ins != full):
        if (index := gathers.get(ins)) is None:
            index = gathers[ins] = _columns(np.arange(gate.size).reshape(gate.shape), plan, t.shape)
        gate = gate.take(index)
    elif ins != full:
        gate = _columns(gate, plan, t.shape)
    front = t.transpose(order)
    out = gate @ front.reshape(gate.shape[1], -1)
    return out.reshape(outs + front.shape[len(axes):]).transpose(inverse)


def _embed(gate: np.ndarray, wires: list, dims: list) -> np.ndarray:
    """``gate`` on the factors ``wires`` (its order) of dims ``dims``, as a whole-space matrix."""
    order = [*wires, *[i for i in range(len(dims)) if i not in wires]]
    back = [order.index(i) for i in range(len(dims))]
    rest = math.prod(dims) // len(gate)
    e = np.multiply.outer(gate, np.eye(rest)).transpose(0, 2, 1, 3) if rest > 1 else gate
    e = e.reshape([dims[i] for i in order] * 2).transpose(back + [len(dims) + i for i in back])
    return e.reshape(math.prod(dims), -1)  # gate (x) I, its factors put in place


def _compress(acc: np.ndarray, dc: int, masks: dict, final: bool = False) -> np.ndarray:
    """At most n = ``rows * dc`` operators for the map of an operator tensor with ``rows`` row
    entries: the map is fixed by sum_j vec(K_j) vec(K_j)^dag, which R of a QR of the rows
    vec(K_j) keeps.  A QR is a call, so the walk's waits while its r operators, priced as a
    step on n dimensions at 2 r n^3 multiply-adds (as :func:`_kraus_form` prices one), cost no
    more than a call, :data:`CALL_MACS`: at n = 8 it runs at every fourth qubit reset; a
    ``final`` one whenever r > n.  R is ``mode="raw"``'s, masked by ``masks[n]`` (no ``triu``)."""
    rows, r = math.prod(acc.shape[:-1]), acc.shape[-1] // dc
    n = rows * dc
    if r <= n or not final and 2 * r * n**3 <= CALL_MACS:
        return acc
    h = np.linalg.qr(acc.reshape(rows, r, dc).transpose(1, 0, 2).reshape(r, -1), mode="raw")[0]
    if (lower := masks.get(n)) is None:
        lower = masks[n] = np.tri(n, k=-1, dtype=bool)
    kept = np.where(lower, 0, h.T[:n])
    return kept.reshape(-1, rows, dc).transpose(1, 0, 2).reshape(acc.shape[:-1] + (-1,))


def compile_step(step: StepCircuit, full: bool = False):
    """Compile a step into ``(carried, kraus, columns)``, its Kraus map on the wires that
    carry state, for :func:`run_compiled`.

    Given |0> on the wires a step leaves in |0> (:func:`_fresh`), it maps a state rho on the
    others, the ``carried`` wire positions (all with ``full``), of dim d_c, to
    sum_j K_j rho K_j^dag.  One walk of the ops builds the K_j as a tensor with one row axis
    per wire, in layout order, and r d_c columns, from the identity on the carried wires; the
    axis of a wire in |0> has length 1.  A gate is one product on its wires' axes and gives
    those in |0> their full axis, a swap swaps two axes, a reset moves its wire's axis into the
    operator index and leaves length 1.  After a reset the stack is compressed once r is past
    the rows times d_c by :func:`_compress`'s priced margin, and at end to r <= d_c^2;
    :func:`_kraus_form` stores each operator once.  It is float64 when no gate has a nonzero
    imaginary part, else complex128.  A d_c too large to allocate raises :class:`MemoryError`,
    also where the walk's three largest tensors, d d_c entries each, would outgrow physical
    memory: an overcommitting kernel lets the allocation pass and kills the process on use.

    A gate waits for the next op: a library gate with no theta but H, a signed permutation, on a
    subset of its wires folds in exactly as ``E @ G`` (:func:`_embed`).  A wire tuple acts in the
    gate's order at its first use and in layout order from its second (:func:`_plan`); plans live
    in dicts of the call, and what is in |0>, r and the QR are read per op.  A sequential l = 64
    step's 129 gates are 65 products.
    """
    dims = [w.dim for w in step.layout]
    fresh = () if full else _fresh(step)
    carried = tuple([i for i in range(len(dims)) if i not in fresh])
    dc = math.prod([dims[i] for i in carried])
    rows = [1 if i in fresh else d for i, d in enumerate(dims)]
    real = not any(np.count_nonzero(op.matrix.imag) for op in step.ops if op.matrix is not None)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 3 * math.prod(dims) * dc * (8 if real else 16) > memory:
        raise MemoryError(f"the compile of a dim {math.prod(dims)} register outgrows memory")
    try:
        acc = np.eye(dc, dtype=float if real else complex).reshape(rows + [dc])
    except ValueError as exc:  # a shape beyond numpy's index range
        raise MemoryError(str(exc)) from None
    where = {w.label: i for i, w in enumerate(step.layout)}
    plans, folds, masks, gate = {}, {}, {}, None  # gate: the one waiting, on wires by plan
    for op in step.ops:
        if (gate is not None and op.kind == "unitary-apply" and op.name not in (None, "H")
                and op.theta is None and set(op.wires).issubset(wires)):  # it folds in
            if (e := folds.get(key := (op.name, op.wires, wires))) is None:
                e = folds[key] = _embed(op.matrix.real if real else op.matrix, [
                    wires.index(w) for w in op.wires], [dims[where[w]] for w in wires])
            gate = e @ gate
            continue
        if gate is not None:
            acc, gate = _apply_rows(acc, gate, plan), None
        if op.kind == "unitary-apply":
            if (plan := plans.get(op.wires)) is None or plan[-1] is None:
                plan = plans[op.wires] = _plan([where[w] for w in op.wires], dims, plan is not None)
            gate, wires = op.matrix.real if real else op.matrix, op.wires
        elif op.kind == "swap":
            acc = acc.swapaxes(where[op.wires[0]], where[op.wires[1]])
        elif acc.shape[a := where[op.wires[0]]] > 1:  # its axis goes into the operator index
            order = [*range(a), *range(a + 1, acc.ndim - 1), a, acc.ndim - 1]
            shape = [*acc.shape[:a], 1, *acc.shape[a + 1:-1], -1]
            acc = _compress(acc.transpose(order).reshape(shape), dc, masks)
    acc = acc if gate is None else _apply_rows(acc, gate, plan)
    at_zero = [w for w in carried if acc.shape[w] < dims[w]]  # carried wires that end in |0>
    if at_zero:
        acc = _apply_rows(acc, np.eye(math.prod(dims[w] for w in at_zero)), _plan(at_zero, dims))
    return (carried, *_kraus_form(_compress(acc.reshape(dc, -1), dc, masks, final=True)))


CALL_MACS = 2**16  # one kernel call (about 10 us at d_c = 8) priced as multiply-adds


def _kraus_form(stack: np.ndarray):
    """``(kraus, columns)`` of a ``(d, r d)`` stack [K_1 .. K_r].  Where that saves more
    multiply-adds per step than :data:`CALL_MACS`, K_j keeps only its columns C_j with a
    nonzero entry, padded with zero columns to a common count c, and ``columns`` holds the C_j,
    ``(r, c)``; else it is None and c = d.  ``kraus`` is the ``(r, d, c)`` view of
    [K_1[:, C_1] .. K_r[:, C_r]]."""
    d = len(stack)
    r, ops, columns = stack.shape[1] // d, stack.reshape(d, -1, d), None
    if 2 * r * d**3 > CALL_MACS:  # else no gather can pay
        nonzero = ops.any(axis=0)
        c = int(nonzero.sum(axis=1).max())
        if r * d * (2 * d * d - c * c - c * d) > CALL_MACS:
            columns = np.argsort(~nonzero, axis=1, kind="stable")[:, :c]
            stack = stack.take((columns + d * np.arange(r)[:, np.newaxis]).ravel(), axis=1)
    return stack.reshape(d, r, -1).transpose(1, 0, 2), columns  # a view: stack is C-contiguous


def superoperator(program) -> np.ndarray:
    """sum_j K_j (x) conj(K_j) of a compiled program, the map on the row-major vec(rho): each
    K_j[:, C_j] put back on C_j by an exact product with rows of I, then one
    ``(d^2 x r) (r x d^2)`` product, its axes (i, j, k, l) put as (i, k, j, l)."""
    _, kraus, columns = program
    r, d, _ = kraus.shape
    if columns is not None:
        kraus = kraus @ np.eye(d, dtype=kraus.dtype)[columns]
    outer = kraus.reshape(r, -1).T @ kraus.conj().reshape(r, -1)
    return outer.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)


def run_compiled(program, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One step on an ``(n, d_c, m)`` stack, in the program's one Kraus form.  A square stack
    (m = d_c) holds carried states: [K_1[:, C_1] .. K_r[:, C_r]] times the stacked
    rho[C_j, C_j] K_j[:, C_j]^dag, two products and no transpose copy, into ``out`` if given
    (C-contiguous); K_j[:, C_j]^dag is a view, conjugated per call only in a complex program.
    A narrower stack (m < d_c) holds factors W of states W X W^dag: it gives
    the ``(n, d_c, r m)`` [K_1 W, .., K_r W], K_j W = K_j[:, C_j] W[C_j], exactly, since
    sum_j K_j W X W^dag K_j^dag is [K_1 W, .., K_r W] (I_r (x) X) [K_1 W, .., K_r W]^dag.
    The result is real only when the program and the states are."""
    _, kraus, columns = program
    n, dc, m = states.shape
    if columns is None:
        picked = states[:, np.newaxis]
    elif m < dc:
        picked = states.take(columns, axis=1)  # W[C_j]
    else:  # rho[C_j, C_j], one axis at a time ("clip" writes to ``out`` unbuffered)
        picked = np.empty((n, *columns.shape, columns.shape[1]), dtype=states.dtype)
        for j, c in enumerate(columns):
            states.take(c, axis=1).take(c, axis=2, out=picked[:, j], mode="clip")
    if m < dc:
        wide = np.empty((n, dc, len(kraus), m), dtype=np.result_type(kraus, states))
        np.matmul(kraus, picked, out=wide.transpose(0, 2, 1, 3))
        return wide.reshape(n, dc, -1)
    side = (picked @ kraus.conj().transpose(0, 2, 1)).reshape(n, -1, dc)
    return np.matmul(kraus.transpose(1, 0, 2).reshape(dc, -1), side, out=out)


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

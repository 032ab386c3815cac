"""Dense reference simulator for step circuits.

It reads only the public description of a step (``layout``, ``system``
and ``ops`` with ``kind``/``wires``/``matrix``) and calls nothing from
oqsim's kernels.  Every op becomes an explicit full-space matrix built
from a Kronecker product and a permutation matrix; a trace-reset is the
Kraus sum ``sum_j |0><j| rho |j><0|`` on its wire; the reduced system
state is an explicit sum over environment basis states.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-12

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_KETS = {
    "p0": np.array([1.0, 0.0], dtype=complex),
    "p1": np.array([0.0, 1.0], dtype=complex),
    "p+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "p-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}


def projector(name: str) -> np.ndarray:
    v = _KETS[name]
    return np.outer(v, v.conj())


def _digits(index: int, dims) -> list[int]:
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return out[::-1]


def _flat(digits, dims) -> int:
    acc = 0
    for x, d in zip(digits, dims):
        acc = acc * d + x
    return acc


def permutation(dims, order) -> np.ndarray:
    """P with P|x_0 .. x_n> = |x_order[0] .. x_order[n]> (layout -> order)."""
    total = math.prod(dims)
    pdims = [dims[o] for o in order]
    p = np.zeros((total, total), dtype=complex)
    for x in range(total):
        ds = _digits(x, dims)
        p[_flat([ds[o] for o in order], pdims), x] = 1.0
    return p


def embed(op, positions, dims) -> np.ndarray:
    """Full-space matrix of ``op`` acting on the factors at ``positions``."""
    rest = [i for i in range(len(dims)) if i not in positions]
    rest_dim = math.prod(dims[i] for i in rest)
    p = permutation(dims, list(positions) + rest)
    return p.T @ np.kron(op, np.eye(rest_dim, dtype=complex)) @ p


class DenseStep:
    """A step circuit as a list of full-space Kraus sets, one per op."""

    def __init__(self, step):
        self.labels = [w.label for w in step.layout]
        self.dims = [w.dim for w in step.layout]
        self.system = [self.labels.index(s) for s in step.system]
        self.maps = []
        for op in step.ops:
            pos = [self.labels.index(w) for w in op.wires]
            if op.kind == "trace-reset":
                d = self.dims[pos[0]]
                kraus = []
                for j in range(d):
                    k = np.zeros((d, d), dtype=complex)
                    k[0, j] = 1.0
                    kraus.append(embed(k, pos, self.dims))
                self.maps.append(kraus)
            elif op.kind == "swap":
                self.maps.append([embed(SWAP, pos, self.dims)])
            else:
                self.maps.append([embed(np.asarray(op.matrix), pos, self.dims)])

    def initial(self, rho_system) -> np.ndarray:
        """rho_system on the system wires, |0><0| on every other wire."""
        rest = [i for i in range(len(self.dims)) if i not in self.system]
        env = np.zeros((math.prod(self.dims[i] for i in rest),) * 2, dtype=complex)
        env[0, 0] = 1.0
        p = permutation(self.dims, self.system + rest)
        return p.T @ np.kron(rho_system, env) @ p

    def apply(self, rho) -> np.ndarray:
        for kraus in self.maps:
            rho = sum(k @ rho @ k.conj().T for k in kraus)
        return rho

    def reduce(self, rho) -> np.ndarray:
        """Partial trace onto the system wires by a sum over environment states."""
        rest = [i for i in range(len(self.dims)) if i not in self.system]
        sys_dims = [self.dims[i] for i in self.system]
        env_dims = [self.dims[i] for i in rest]
        sys_total = math.prod(sys_dims)
        out = np.zeros((sys_total, sys_total), dtype=complex)
        for e in range(math.prod(env_dims)):
            ed = _digits(e, env_dims)
            idx = []
            for s in range(sys_total):
                ds = [0] * len(self.dims)
                for i, x in zip(self.system, _digits(s, sys_dims)):
                    ds[i] = x
                for i, x in zip(rest, ed):
                    ds[i] = x
                idx.append(_flat(ds, self.dims))
            out += rho[np.ix_(idx, idx)]
        return out


def trajectory(step, rho_system, steps: int, observables) -> np.ndarray:
    """One row per record 0..steps: the observables' values, trace, purity."""
    dense = DenseStep(step)
    projs = [projector(name) for name in observables]
    rho = dense.initial(np.asarray(rho_system, dtype=complex))
    rows = []
    for n in range(steps + 1):
        if n:
            rho = dense.apply(rho)
        red = dense.reduce(rho)
        rows.append([np.trace(p @ red) for p in projs] + [np.trace(red), np.trace(red @ red)])
    return np.real(np.array(rows))


def trace_distance_qubit(a, b) -> float:
    """Half the trace norm of a - b for 2x2 Hermitian matrices, in closed form."""
    m = np.asarray(a) - np.asarray(b)
    mean = np.real(m[0, 0] + m[1, 1]) / 2.0
    radius = math.hypot(np.real(m[0, 0] - m[1, 1]) / 2.0, abs(m[0, 1]))
    return 0.5 * (abs(mean + radius) + abs(mean - radius))


def blp_witness(step, rho_a, rho_b, steps: int) -> float:
    """Summed trace-distance revivals of two states evolved by ``step``."""
    dense = DenseStep(step)
    mats = [dense.initial(np.asarray(r, dtype=complex)) for r in (rho_a, rho_b)]
    prev = trace_distance_qubit(*(dense.reduce(m) for m in mats))
    total = 0.0
    for _ in range(steps):
        mats = [dense.apply(m) for m in mats]
        cur = trace_distance_qubit(*(dense.reduce(m) for m in mats))
        if cur > prev:
            total += cur - prev
        prev = cur
    return total


def matches(got, want) -> bool:
    """Same shape and every entry within :data:`TOLERANCE` (NaN never matches)."""
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= TOLERANCE))

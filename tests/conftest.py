"""Shared fixtures and brute-force oracles, kept independent of the package
internals they check."""

import math

import numpy as np
import pytest

from oqsim.circuit import GateOp, StepCircuit, build_sequential_step
from oqsim.qmath import DensityMatrix, Wire


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, n=2):
    """Ginibre-sampled density matrix."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_density_state(rng, n=2, label="q"):
    return DensityMatrix(random_density(rng, n), (Wire(label, n),))


def random_channel_ops(rng, n=2, l=3):
    """Random Kraus set from the first block column of a Haar-ish unitary."""
    big = n * l
    g = rng.normal(size=(big, big)) + 1j * rng.normal(size=(big, big))
    q, _ = np.linalg.qr(g)
    return [q[i * n:(i + 1) * n, :n] for i in range(l)]


def kraus_apply(ops, rho):
    """Direct sum_i K rho K^dag, the reference channel action."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for op in ops:
        out = out + op @ rho @ op.conj().T
    return out


def _digits(x, dims):
    ds = []
    for d in reversed(dims):
        ds.append(x % d)
        x //= d
    return ds[::-1]


def embed_operator(op, positions, dims):
    """Dense oracle: ``op`` on the factors at ``positions`` as a full-space matrix.

    ``positions`` lists the target factors in the operator's own order.  Built
    from a Kronecker product and an explicit permutation matrix.
    """
    op = np.asarray(op, dtype=complex)
    dims, positions = list(dims), list(positions)
    rest = [i for i in range(len(dims)) if i not in positions]
    order = positions + rest
    total = math.prod(dims)
    perm = np.zeros((total, total))
    for x in range(total):
        ds = _digits(x, dims)
        y = 0
        for o in order:
            y = y * dims[o] + ds[o]
        perm[y, x] = 1.0
    eye = np.eye(math.prod(dims[i] for i in rest), dtype=complex)
    return perm.T @ np.kron(op, eye) @ perm


def swap_matrix(d):
    """SWAP of two d-level factors: |i j> -> |j i>."""
    return np.eye(d * d)[[(x % d) * d + x // d for x in range(d * d)]]


def dense_maps(step):
    """Every op of a step as a list of full-space Kraus operators, one list per op.

    A gate is its embedded matrix, a swap the embedded SWAP and a
    trace-reset the Kraus set ``|0><j|`` on its wire.
    """
    labels = [w.label for w in step.layout]
    dims = [w.dim for w in step.layout]
    maps = []
    for op in step.ops:
        pos = [labels.index(w) for w in op.wires]
        if op.kind == "trace-reset":
            d = dims[pos[0]]
            kraus = []
            for j in range(d):
                k = np.zeros((d, d))
                k[0, j] = 1.0
                kraus.append(embed_operator(k, pos, dims))
            maps.append(kraus)
        elif op.kind == "swap":
            maps.append([embed_operator(swap_matrix(dims[pos[0]]), pos, dims)])
        else:
            maps.append([embed_operator(op.matrix, pos, dims)])
    return maps


def dense_apply(maps, rho):
    """One step of the per-op dense oracle on a full-register matrix."""
    for kraus in maps:
        rho = sum(k @ rho @ k.conj().T for k in kraus)
    return rho


def dense_reduce(mat, dims, keep):
    """Partial trace onto the factors at positions ``keep``, as one einsum."""
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    d = math.prod(dims[i] for i in keep)
    t = np.asarray(mat, dtype=complex).reshape(list(dims) * 2)
    return np.einsum(t, list(range(n)) + cols, out).reshape(d, d)


def dense_trajectory(step, rho0, steps):
    """Reduced system matrices after 0..``steps`` steps of the per-op dense oracle.

    The register starts with ``rho0`` on the (contiguous) system wires and
    |0><0| on every other wire.
    """
    dims = [w.dim for w in step.layout]
    keep = [i for i, w in enumerate(step.layout) if w.label in step.system]
    full = np.ones((1, 1), dtype=complex)
    for i, d in enumerate(dims):
        if i == keep[0]:
            full = np.kron(full, rho0.matrix)
        elif i not in keep:
            full = np.kron(full, np.diag([1.0] + [0.0] * (d - 1)))
    maps = dense_maps(step)
    out = [dense_reduce(full, dims, keep)]
    for _ in range(steps):
        full = dense_apply(maps, full)
        out.append(dense_reduce(full, dims, keep))
    return out


def brute_partial_trace(mat, dims, axis):
    """Partial trace by an explicit basis sum, no reshape tricks."""
    mat = np.asarray(mat, dtype=complex)
    m = len(dims)
    keep = [i for i in range(m) if i != axis]
    out_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def flat(ds, which):
        acc = 0
        for i in which:
            acc = acc * dims[i] + ds[i]
        return acc

    total = int(np.prod(dims))
    for row in range(total):
        dr = _digits(row, dims)
        for col in range(total):
            dc = _digits(col, dims)
            if dr[axis] != dc[axis]:
                continue
            out[flat(dr, keep), flat(dc, keep)] += mat[row, col]
    return out


def unit_images(ops, d):
    """The d^2 images ``sum_K K |i><j| K^dag`` of a Kraus set, stacked at i d + j."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.array([kraus_apply(ops, u) for u in units])


def choi_min_eigenvalue(images):
    """Lowest eigenvalue of the Choi matrix of a map given by its unit images.

    ``images`` holds the d^2 images of |i><j|, stacked at i d + j.  The Choi
    matrix sum_ij |i><j| (x) Phi(|i><j|) has entry [(i, a), (j, b)] equal to
    Phi(|i><j|)[a, b]; it must be Hermitian, and the map is completely
    positive exactly when its lowest eigenvalue is >= 0.
    """
    images = np.asarray(images, dtype=complex)
    d = images.shape[-1]
    choi = images.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    return float(np.linalg.eigvalsh(choi).min())


KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def qstate(matrix, label="q"):
    return DensityMatrix(matrix, (Wire(label),))


def sequential_with_storage(ch, theta2, theta3):
    """The sequential step of ``ch`` on c, q, e1, e2, e3: ``Ry(theta2)`` on e2 and
    ``Ry(theta3)`` on e3 after c's X, the factor ops on e1, then SWAP e1<->e2 and
    SWAP e2<->e3 before c's reset.

    q sits between two traced blocks, and the compiled map has r = 16 > d_c = 8
    operators, so its factor and dense paths both run.
    """
    plain = build_sequential_step(ch)
    x, *factor_ops, reset_c = [
        GateOp(op.kind, ["e1" if w == "e" else w for w in op.wires],
               name=op.name, matrix=op.matrix, theta=op.theta)
        for op in plain.ops
    ]
    ops = [x, GateOp.gate("Ry", ("e2",), theta2), GateOp.gate("Ry", ("e3",), theta3),
           *factor_ops, GateOp.swap("e1", "e2"), GateOp.swap("e2", "e3"), reset_c]
    layout = tuple(Wire(w) for w in ("c", "q", "e1", "e2", "e3"))
    return StepCircuit(plain.label, layout, ("q",), ops)

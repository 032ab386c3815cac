"""Dense linear algebra for small qubit registers.

Everything operates on plain ``numpy`` arrays, ``float64`` where the data
are real and ``complex128`` otherwise, or on :class:`DensityMatrix` values,
which tag a ``complex128`` matrix with an ordered wire layout.

Ordering convention: the first wire of a layout is the most significant
index block, i.e. a layout ``(a, b)`` enumerates the basis as ``|a b>``
with ``a`` varying slowest.  ``tensor_product(A, B)`` follows the same
rule (``A`` on the more significant factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALIDITY_ATOL = 1e-10   # hermiticity / trace / unitarity checks
RECON_ATOL = 1e-9       # eigenvalue floor of the state check


class DimensionMismatchError(ValueError):
    """Operands with incompatible dimensions or layouts."""


class UnknownWireError(ValueError):
    """A wire label that is not present in a layout."""


class InvalidStateError(ValueError):
    """A matrix that violates the density-matrix invariants.

    ``index`` is the position of the failing state in the checked stack.
    """

    def __init__(self, invariant: str, message: str, index: int = 0):
        super().__init__(message)
        self.invariant = invariant
        self.index = index


@dataclass(frozen=True)
class Wire:
    """A register wire: a label plus its Hilbert-space dimension."""

    label: str
    dim: int = 2


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix, raising on bad shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def complex_pairs(pairs) -> list[complex]:
    """JSON ``[re, im]`` number pairs as complex numbers.

    Anything else raises ``TypeError`` or ``ValueError``, a boolean included:
    ``complex`` alone would read ``true`` as 1.
    """
    values = []
    for re, im in pairs:
        if not {type(re), type(im)} <= {int, float}:
            raise TypeError(f"[{re!r}, {im!r}] is not a pair of numbers")
        values.append(complex(re, im))
    return values


def is_hermitian(m) -> bool:
    a = as_complex_matrix(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= VALIDITY_ATOL)


def is_unitary(m) -> bool:
    """An entry above 1 + VALIDITY_ATOL in modulus (NaN, inf, huge) fails before any product."""
    a = as_complex_matrix(m)
    if not (np.abs(a) <= 1.0 + VALIDITY_ATOL).all():
        return False
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= VALIDITY_ATOL)


def layout_dim(layout) -> int:
    return math.prod(w.dim for w in layout)


def wire_index(layout, label: str) -> int:
    for i, w in enumerate(layout):
        if w.label == label:
            return i
    raise UnknownWireError(f"wire {label!r} not in layout {[w.label for w in layout]}")


def check_states(stack: np.ndarray, layout) -> None:
    """Check every matrix of an ``(n, d, d)`` stack against the density-matrix invariants.

    Per state, in this order: the wire dimensions multiply to d, the trace
    is 1 within 1e-10, the matrix is Hermitian within 1e-10 (a NaN fails
    here, an infinity here or at the trace, with no numpy warning) and its
    minimum eigenvalue is >= -1e-9.  Raises
    :class:`InvalidStateError` for the first state that fails, with its
    index; eigenvalues are computed only for the states before the first
    trace or hermiticity failure.
    """
    n, d = len(stack), stack.shape[-1]
    if layout_dim(layout) != d:
        raise InvalidStateError(
            "layout", f"layout dims {[w.dim for w in layout]} do not multiply to {d}"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and huge entries
        traces = np.trace(stack, axis1=1, axis2=2)
        bad_trace = np.abs(traces - 1.0) > VALIDITY_ATOL
        skew = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(bad_trace | ~(skew <= VALIDITY_ATOL))
    first = int(bad[0]) if bad.size else n
    lows = np.linalg.eigvalsh(stack[:first]).min(axis=1)
    negative = np.flatnonzero(lows < -RECON_ATOL)
    if negative.size:
        i = int(negative[0])
        raise InvalidStateError("psd", f"minimum eigenvalue {lows[i]} below -1e-9", i)
    if first == n:
        return
    if bad_trace[first]:
        raise InvalidStateError(
            "trace", f"trace {traces[first]} deviates from 1 beyond 1e-10", first
        )
    raise InvalidStateError("hermitian", "matrix is not Hermitian within 1e-10", first)


class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over an ordered wire register.

    Instances are immutable: the stored matrix is a read-only copy.
    Construction checks the matrix with :func:`check_states`.
    """

    __slots__ = ("matrix", "layout")

    def __init__(self, matrix, layout):
        m = as_complex_matrix(matrix)
        layout = tuple(layout)
        check_states(m[np.newaxis], layout)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "layout", layout)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def wire_labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.layout)

    @classmethod
    def from_pure(cls, amplitudes, layout) -> "DensityMatrix":
        """Projector onto a normalized state vector."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(np.outer(v, v.conj()), layout)

    def __repr__(self):
        wires = " ".join(f"{w.label}:{w.dim}" for w in self.layout)
        return f"DensityMatrix(dim={self.dim}, wires=[{wires}])"


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first argument as the more significant block."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace_matrix(mat, dims, *axes: int) -> np.ndarray:
    """Trace out the tensor factors ``axes`` of a matrix over ``dims``, in one ``einsum``.

    ``dims`` lists the factor dimensions in layout order; the remaining
    factors keep their relative order (no axes: the matrix; all: its 1x1 trace).
    A stack of matrices, with leading axes, reduces in the same call, in its own dtype.
    """
    mat = np.asarray(mat)
    dims = list(dims)
    m, lead = len(dims), mat.shape[:-2]
    if mat.shape[-2:] != (math.prod(dims),) * 2:
        raise DimensionMismatchError(f"dims {dims} do not match matrix dim {mat.shape[-1]}")
    if not set(axes) <= set(range(m)):
        raise DimensionMismatchError(f"axes {axes} are not factors of dims {dims}")
    keep = [i for i in range(m) if i not in axes]
    cols = [i if i in axes else m + i for i in range(m)]
    out = [..., *keep, *(m + i for i in keep)]
    t = np.einsum(mat.reshape(lead + (*dims, *dims)), [..., *range(m), *cols], out)
    rest = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (rest, rest))


def partial_trace(rho: DensityMatrix, wire: str) -> DensityMatrix:
    """Reduced state after tracing out one wire of the register."""
    idx = wire_index(rho.layout, wire)
    dims = [w.dim for w in rho.layout]
    red = partial_trace_matrix(rho.matrix, dims, idx)
    rest = tuple(w for i, w in enumerate(rho.layout) if i != idx)
    # tracing the only wire leaves the 1x1 matrix [trace] on a scalar wire
    return DensityMatrix(red, rest or (Wire("scalar", 1),))


def trace_distance_matrix(a, b):
    """Half the trace norm of the Hermitian difference ``a - b``.

    Works over the last two axes, so two ``(n, d, d)`` stacks give the
    ``n`` pairwise distances in one call.
    """
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * np.abs(eigs).sum(axis=-1)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma; in [0, 1] for states."""
    if rho.dim != sigma.dim or rho.layout != sigma.layout:
        raise DimensionMismatchError(
            f"states differ in dim/layout: {rho!r} vs {sigma!r}"
        )
    return float(trace_distance_matrix(rho.matrix, sigma.matrix))

"""Kraus channels: construction, application and dilation.

A channel is its ordered Kraus operators; this module builds no matrix
form of it.  The package's one superoperator is the one ``oqsim.engine.evolve``
builds with :func:`oqsim.circuit.superoperator`, ``sum_K K (x) conj(K)`` on
the row-major ``vec(rho)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    as_complex_matrix,
    complex_pairs,
)

COMPLETENESS_ATOL = 1e-9

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ParameterError(ValueError):
    """Channel parameter outside its admissible range."""


class InvalidChannelError(ValueError):
    """Kraus operators that do not satisfy the completeness relation."""


class KrausChannel:
    """Ordered Kraus operators on a fixed dimension, complete by construction: an
    entry not finite or above 1 + 1e-9 in modulus, or a Frobenius deviation of
    ``sum K^dag K`` from I above 1e-9, raises :class:`InvalidChannelError`."""

    __slots__ = ("dim", "operators", "label")

    def __init__(self, dim: int, operators, label: str = ""):
        label = str(label)
        ops = []
        for i, op in enumerate(operators):
            a = as_complex_matrix(op)
            if a.shape[0] != dim:
                raise DimensionMismatchError(
                    f"operator dim {a.shape[0]} does not match channel dim {dim}"
                )
            if not (np.abs(a) <= 1.0 + COMPLETENESS_ATOL).all():
                raise InvalidChannelError(
                    f"operator {i} of channel {label!r} has an entry not finite or above 1"
                )
            a = a.copy()
            a.flags.writeable = False
            ops.append(a)
        if not ops:
            raise InvalidChannelError("a channel needs at least one operator")
        dev = float(np.linalg.norm(sum(a.conj().T @ a for a in ops) - np.eye(dim)))
        if dev > COMPLETENESS_ATOL:
            raise InvalidChannelError(
                f"channel {label!r} completeness deviation {dev:.3e} exceeds {COMPLETENESS_ATOL}"
            )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __len__(self):
        return len(self.operators)

    def __repr__(self):
        return f"KrausChannel({self.label!r}, dim={self.dim}, l={len(self)})"


def _drop_zero_operators(ops):
    return [op for op in ops if np.linalg.norm(op) > 0.0]


def _checked_gamma(gamma) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma {gamma} outside [0, 1]")
    return gamma


def amplitude_damping(gamma: float) -> KrausChannel:
    """Energy-loss channel |1> -> |0> of strength gamma = sin(theta/2).

    Operators: ``K0 = |0><0| + sqrt(1-gamma^2)|1><1|`` and
    ``K1 = gamma |0><1|``.  Zero operators (gamma = 0) are dropped; a gamma
    outside [0, 1] raises :class:`ParameterError`.
    """
    gamma = _checked_gamma(gamma)
    k0 = np.diag([1.0, math.sqrt(1.0 - gamma * gamma)]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = gamma
    ops = _drop_zero_operators([k0, k1])
    return KrausChannel(2, ops, label=f"amplitude-damping(gamma={gamma:.6g})")


def dephasing(gamma: float) -> KrausChannel:
    """Phase-flip channel: ``K0 = sqrt(1-gamma^2) I``, ``K1 = gamma Z``.

    One application multiplies the off-diagonal element by ``1 - 2 gamma^2``;
    a gamma outside [0, 1] raises :class:`ParameterError`.
    """
    gamma = _checked_gamma(gamma)
    k0 = math.sqrt(1.0 - gamma * gamma) * PAULI_I
    k1 = gamma * PAULI_Z
    ops = _drop_zero_operators([k0, k1])
    return KrausChannel(2, ops, label=f"dephasing(gamma={gamma:.6g})")


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """Mixture of Pauli errors with the given probabilities."""
    probs = (px, py, pz)
    for name, p in zip(("px", "py", "pz"), probs):
        if not math.isfinite(p):
            raise ParameterError(f"probability {name} = {p} is not a finite number")
    if any(p < 0 for p in probs):
        raise ParameterError(f"negative probability in {probs}")
    total = px + py + pz
    if total > 1.0:
        raise ParameterError(f"probabilities {probs} sum beyond 1")
    ops = [
        math.sqrt(1.0 - total) * PAULI_I,
        math.sqrt(px) * PAULI_X,
        math.sqrt(py) * PAULI_Y,
        math.sqrt(pz) * PAULI_Z,
    ]
    ops = _drop_zero_operators(ops)
    return KrausChannel(2, ops, label=f"pauli({px:.6g},{py:.6g},{pz:.6g})")


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ``rho -> sum_i K_i rho K_i^dag``; a channel is complete from its construction."""
    if ch.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {ch.dim} does not match state dim {rho.dim}")
    return DensityMatrix(sum(op @ rho.matrix @ op.conj().T for op in ch.operators), rho.layout)


def environment_dim(num_operators: int) -> int:
    """Smallest power of two able to index the Kraus operators."""
    return 1 << max(0, (num_operators - 1).bit_length())


def stinespring_dilate(ch: KrausChannel) -> np.ndarray:
    """Unitary on system (x) environment realizing the channel.

    The environment has the smallest power-of-two dimension that can
    index the operators; the prescribed isometry block sends
    ``|s>|0>_E`` to ``sum_i (K_i |s>) (x) |i>_E`` and the remaining
    columns, in order, are the left singular vectors of that block beyond
    its rank: an orthonormal basis of its null space from one SVD, so the
    result is deterministic.  These completion columns differ from those
    of a Gram-Schmidt completion over canonical basis vectors.
    """
    n = ch.dim
    ed = environment_dim(len(ch.operators))
    u = np.zeros((n * ed, n * ed), dtype=complex)
    for i, op in enumerate(ch.operators):
        # system index r, environment index i -> flat r*ed + i; column s*ed is |s>|0>_E
        u[i::ed, ::ed] += op
    free = np.ones(n * ed, dtype=bool)
    free[::ed] = False
    u[:, free] = np.linalg.svd(u[:, ::ed])[0][:, n:]
    return u


def save_channel(ch: KrausChannel, path) -> None:
    """Write the channel spec file: dim, label, row-major [re, im] pairs."""
    payload = {
        "dim": ch.dim,
        "label": ch.label,
        "operators": [
            [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
            for op in ch.operators
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _refused(flat):
    """The first entry of an operator list that :func:`complex_pairs` refuses, or the
    operator itself when it is no list."""
    for pair in flat if isinstance(flat, list) else ():
        try:
            complex_pairs([pair])
        except (OverflowError, TypeError, ValueError):
            return pair
    return flat


def load_channel(path) -> KrausChannel:
    """Read a channel spec file written by :func:`save_channel`.

    A malformed file, or operators :class:`KrausChannel` refuses (an incomplete
    set among them), raise :class:`InvalidChannelError` while loading.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise InvalidChannelError(str(exc)) from None
    if not isinstance(payload, dict):
        raise InvalidChannelError("channel file must hold a JSON object")
    for key in ("dim", "operators"):
        if key not in payload:
            raise InvalidChannelError(f"channel file missing key {key!r}")
    unknown = set(payload) - {"dim", "label", "operators"}
    if unknown:
        raise InvalidChannelError(f"channel file has unknown keys {sorted(unknown)}")
    dim, operators = payload["dim"], payload["operators"]
    if type(dim) is not int or dim < 1:
        raise InvalidChannelError(f"channel dim must be a positive integer, got {dim!r}")
    if not isinstance(operators, list):
        raise InvalidChannelError("channel operators must be a list")
    ops = []
    for flat in operators:
        try:
            vals = complex_pairs(flat)
        except (OverflowError, TypeError, ValueError):
            raise InvalidChannelError(
                f"operator entries must be [re, im] number pairs, got {_refused(flat)!r:.80}"
            ) from None
        if len(vals) != dim * dim:
            raise InvalidChannelError(
                f"operator has {len(vals)} entries, expected {dim * dim}"
            )
        ops.append(np.array(vals, dtype=complex).reshape(dim, dim))
    return KrausChannel(dim, ops, label=str(payload.get("label", "")))

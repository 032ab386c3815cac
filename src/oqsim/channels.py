"""Kraus channels: construction, validation, application and algebra.

Superoperators use the column-stacking convention throughout: with
``vec(rho)`` stacking columns, a channel with operators ``{K}`` has the
matrix ``sum_K conj(K) (x) K`` acting as ``vec(rho') = S vec(rho)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qmath import (
    DensityMatrix,
    DimensionMismatchError,
    PSDViolationError,
    as_complex_matrix,
    psd_sqrt,
)

COMPLETENESS_ATOL = 1e-9
CONDITION_LIMIT = 1e12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class ParameterError(ValueError):
    """Channel parameter outside its admissible range."""


class InvalidChannelError(ValueError):
    """Kraus operators that do not satisfy the completeness relation."""


class SingularMapError(ValueError):
    """A superoperator too ill-conditioned to invert."""


class DecompositionError(ValueError):
    """Sequential factorization impossible for the given operators."""


class KrausChannel:
    """Ordered set of Kraus operators on a fixed dimension."""

    __slots__ = ("dim", "operators", "label")

    def __init__(self, dim: int, operators, label: str = ""):
        ops = []
        for op in operators:
            a = as_complex_matrix(op)
            if a.shape[0] != dim:
                raise DimensionMismatchError(
                    f"operator dim {a.shape[0]} does not match channel dim {dim}"
                )
            a = a.copy()
            a.flags.writeable = False
            ops.append(a)
        if not ops:
            raise InvalidChannelError("a channel needs at least one operator")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "label", str(label))

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __len__(self):
        return len(self.operators)

    def __repr__(self):
        return f"KrausChannel({self.label!r}, dim={self.dim}, l={len(self)})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the completeness check sum_i K_i^dag K_i = I."""

    deviation: float
    passed: bool


@dataclass(frozen=True)
class Superoperator:
    """n^2 x n^2 matrix on column-stacked density matrices."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != self.dim * self.dim:
            raise DimensionMismatchError(
                f"superoperator matrix dim {m.shape[0]} != {self.dim}^2"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def validate(ch: KrausChannel) -> ValidationReport:
    """Report the Frobenius deviation of sum K^dag K from the identity."""
    acc = np.zeros((ch.dim, ch.dim), dtype=complex)
    for op in ch.operators:
        acc += op.conj().T @ op
    dev = float(np.linalg.norm(acc - np.eye(ch.dim)))
    return ValidationReport(deviation=dev, passed=dev <= COMPLETENESS_ATOL)


def _require_valid(ch: KrausChannel):
    report = validate(ch)
    if not report.passed:
        raise InvalidChannelError(
            f"channel {ch.label!r} completeness deviation {report.deviation:.3e} "
            f"exceeds {COMPLETENESS_ATOL}"
        )


def _drop_zero_operators(ops):
    kept = [op for op in ops if np.linalg.norm(op) > 0.0]
    return kept if kept else list(ops)


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
    """Apply ``rho -> sum_i K_i rho K_i^dag``."""
    if ch.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {ch.dim} does not match state dim {rho.dim}")
    _require_valid(ch)
    return DensityMatrix(sum(op @ rho.matrix @ op.conj().T for op in ch.operators), rho.layout)


def environment_dim(num_operators: int) -> int:
    """Smallest power of two able to index the Kraus operators."""
    if num_operators < 1:
        raise ParameterError("need at least one operator")
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
    _require_valid(ch)
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


def to_superoperator(ch: KrausChannel) -> Superoperator:
    """Column-stacking matrix form ``sum_i conj(K_i) (x) K_i``."""
    _require_valid(ch)
    return Superoperator(matrix=sum(np.kron(op.conj(), op) for op in ch.operators), dim=ch.dim)


def compose(second: Superoperator, first: Superoperator) -> Superoperator:
    """Map applying ``first`` and then ``second``."""
    if second.dim != first.dim:
        raise DimensionMismatchError(f"superoperator dims differ: {second.dim} vs {first.dim}")
    return Superoperator(matrix=second.matrix @ first.matrix, dim=first.dim)


def intermediate_map(phi_t: Superoperator, phi_s: Superoperator) -> Superoperator:
    """The two-time map ``phi_t . phi_s^{-1}``."""
    if phi_t.dim != phi_s.dim:
        raise DimensionMismatchError(f"superoperator dims differ: {phi_t.dim} vs {phi_s.dim}")
    cond = np.linalg.cond(phi_s.matrix)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMapError(
            f"map is not invertible (condition number {cond:.3e} beyond {CONDITION_LIMIT:.0e})"
        )
    return Superoperator(matrix=phi_t.matrix @ np.linalg.inv(phi_s.matrix), dim=phi_t.dim)


def choi_matrix(phi: Superoperator) -> np.ndarray:
    """Reshuffle of the superoperator; PSD iff the map is completely positive."""
    n = phi.dim
    c = phi.matrix.reshape(n, n, n, n).swapaxes(0, 3).reshape(n * n, n * n)
    # hermitize: meaningful witnesses assume a hermiticity-preserving map
    return (c + c.conj().T) / 2.0


def cp_witness(phi: Superoperator) -> float:
    """Minimum Choi eigenvalue; >= -1e-9 certifies complete positivity."""
    return float(np.linalg.eigvalsh(choi_matrix(phi)).min())


def sequential_factors(ch: KrausChannel, mode: str = "exact") -> list[KrausChannel]:
    """Split a channel into one two-operator factor per Kraus operator.

    Factor ``i`` is ``{K_i, K_i'}`` with ``K_i' = sqrt(I - K_i^dag K_i)``
    in ``exact`` mode (each factor is exactly trace preserving) or the
    expansion ``K_i' = I - K_i^dag K_i / 2`` in ``first-order`` mode.
    Composing the exact factors reproduces the channel up to second
    order in the operator weights.
    """
    if mode not in ("exact", "first-order"):
        raise ParameterError(f"unknown mode {mode!r}")
    eye = np.eye(ch.dim, dtype=complex)
    factors = []
    for i, op in enumerate(ch.operators):
        gram = op.conj().T @ op
        if mode == "exact":
            try:
                comp = psd_sqrt(eye - gram)
            except PSDViolationError as exc:
                raise DecompositionError(
                    f"operator {i} of {ch.label!r} has singular value above 1: {exc}"
                ) from exc
        else:
            comp = eye - 0.5 * gram
        factors.append(
            KrausChannel(ch.dim, [op, comp], label=f"{ch.label}#factor{i}")
        )
    return factors


def scaled_unitary_part(op) -> tuple[float, np.ndarray] | None:
    """Split ``op = w U`` with ``U`` unitary, or ``None`` if not of that form.

    A global phase is folded into ``U`` being reported up to phase as the
    nearest Pauli by callers; here ``U`` is simply ``op / w``.
    """
    a = as_complex_matrix(op)
    gram = a.conj().T @ a
    w2 = float(np.real(np.trace(gram))) / a.shape[0]
    if w2 <= 0.0:
        return 0.0, np.eye(a.shape[0], dtype=complex)
    if np.max(np.abs(gram - w2 * np.eye(a.shape[0]))) > 1e-10:
        return None
    w = math.sqrt(min(w2, 1.0))
    return w, a / math.sqrt(w2)


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


def load_channel(path) -> KrausChannel:
    """Read a channel spec file written by :func:`save_channel`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
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
            vals = [complex(re, im) for re, im in flat]
        except (TypeError, ValueError):
            raise InvalidChannelError(
                f"operator entries must be [re, im] number pairs, got {flat!r}"
            ) from None
        if len(vals) != dim * dim:
            raise InvalidChannelError(
                f"operator has {len(vals)} entries, expected {dim * dim}"
            )
        ops.append(np.array(vals, dtype=complex).reshape(dim, dim))
    return KrausChannel(dim, ops, label=str(payload.get("label", "")))

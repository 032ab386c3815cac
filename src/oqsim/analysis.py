"""Memory diagnostics on trajectories and circuit resource accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import StepCircuit
from .engine import Trajectory, evolve
from .qmath import (
    DensityMatrix,
    trace_distance,  # noqa: F401  kept as oqsim.analysis.trace_distance, a perfbench hook name
    trace_distance_matrix,
)

MONOTONE_ATOL = 1e-9


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Whether an observable series ever rises beyond tolerance.

    ``max_revival`` is the largest single-step increase (negative when the
    series strictly decreases everywhere).
    """

    monotone: bool
    first_violation: int | None
    max_revival: float


def monotonicity_check(
    traj: Trajectory, observable: str, tolerance: float = MONOTONE_ATOL
) -> MonotonicityVerdict:
    if not tolerance >= 0:
        raise ValueError(f"tolerance {tolerance} must be >= 0")
    series = traj.series(observable)
    first = None
    max_rev = -math.inf
    for i in range(1, len(series)):
        diff = series[i] - series[i - 1]
        max_rev = max(max_rev, diff)
        if diff > tolerance and first is None:
            first = i
    return MonotonicityVerdict(
        monotone=first is None, first_violation=first, max_revival=max_rev
    )


def blp_witness(
    step: StepCircuit, rho_a: DensityMatrix, rho_b: DensityMatrix, steps: int
) -> float:
    """Summed trace-distance revivals between two evolving states.

    Zero (within tolerance) for memoryless steps, since each application is
    a contraction of the pair; positive revivals flag information backflow.
    The pair is one :func:`evolve` call: one compile, and the checks and
    errors of that call.
    """
    states = evolve(step, (rho_a, rho_b), steps)
    revivals = np.diff(trace_distance_matrix(states[:, 0], states[:, 1]))
    return float(revivals[revivals > 0].sum())


@dataclass(frozen=True)
class ResourceReport:
    """Counted resources of a step circuit.

    ``gates_per_step`` counts every directive (trace-reset and SWAP are one
    each); ``unitary_gates_per_step`` excludes resets: for a sequential step,
    one X on c plus three gates per operator that is not the identity.
    """

    qubit_count: int
    gates_per_step: int
    unitary_gates_per_step: int
    total_gates: int

    def as_text(self) -> str:
        lines = [
            f"qubit_count = {self.qubit_count}",
            f"gates_per_step = {self.gates_per_step}",
            f"unitary_gates_per_step = {self.unitary_gates_per_step}",
            f"total_gates = {self.total_gates}",
        ]
        return "\n".join(lines) + "\n"


def resource_count(step: StepCircuit, steps: int) -> ResourceReport:
    """Count the qubits and ops of a step, and its ops over ``steps`` steps."""
    qubits = 0
    for w in step.layout:
        nq = int(round(math.log2(w.dim)))
        if 2**nq != w.dim:
            raise ValueError(f"wire {w.label!r} dim {w.dim} is not a power of two")
        qubits += nq
    per_step = len(step.ops)
    resets = sum(1 for op in step.ops if op.kind == "trace-reset")
    return ResourceReport(
        qubit_count=qubits,
        gates_per_step=per_step,
        unitary_gates_per_step=per_step - resets,
        total_gates=steps * per_step,
    )

"""The compiled step program against the per-op dense oracle in conftest."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.channels import KrausChannel, pauli_channel
from oqsim.circuit import (
    GateOp,
    MemorySpec,
    StepCircuit,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    compile_step,
    run_compiled,
)
from oqsim.qmath import Wire

from conftest import dense_apply, dense_maps, random_channel_ops, random_density

KINDS = ("amplitude-damping", "dephasing")
THETAS = (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6, math.pi / 4, 1.1)
QUBITS3 = (Wire("q"), Wire("a"), Wire("b"))


def expected_kinds(step):
    """Program entry kinds the fusion rule gives: one per reset, one per run
    of gates and swaps between resets ("unitary" when it holds a gate)."""
    kinds, run = [], []
    for op in list(step.ops) + [None]:
        if op is not None and op.kind != "trace-reset":
            run.append(op.kind)
            continue
        if run:
            kinds.append("unitary" if "unitary-apply" in run else "permute")
            run = []
        if op is not None:
            kinds.append("reset")
    return kinds


def _steps():
    steps = {}
    for kind in KINDS:
        steps[f"markovian-{kind}"] = build_markovian_step(kind, math.pi / 7)
        for k in range(2, 6):
            steps[f"memory-{kind}-k{k}"] = build_nonmarkovian_step(
                kind, MemorySpec(k, THETAS[:k])
            )
    pauli = pauli_channel(0.05, 0.1, 0.15)
    steps["sequential"] = build_sequential_step(pauli)
    steps["sequential-memory-k3"] = build_sequential_step(pauli, MemorySpec(3, THETAS[:3]))
    ops = random_channel_ops(np.random.default_rng(5), n=4, l=3)
    steps["dilation-2-qubit"] = build_dilation_step(KrausChannel(4, ops, label="rand4"))
    steps["no-reset"] = StepCircuit(
        "no-reset", QUBITS3, ("q",),
        [GateOp.gate("H", ("q",)), GateOp.gate("CNOT", ("q", "b")), GateOp.gate("Ry", ("a",), 0.4)],
    )
    steps["swap-first"] = StepCircuit(
        "swap-first", QUBITS3, ("q",),
        [GateOp.swap("q", "b"), GateOp.gate("CRy", ("b", "a"), 1.3), GateOp.reset("a")],
    )
    steps["swap-only-segment"] = StepCircuit(
        "swap-only", QUBITS3, ("q",),
        [
            GateOp.gate("CRy", ("q", "a"), 0.9),
            GateOp.reset("a"),
            GateOp.swap("q", "a"),
            GateOp.swap("a", "b"),
            GateOp.reset("b"),
        ],
    )
    steps["swap-between-gates"] = StepCircuit(
        "swap-between", QUBITS3, ("q",),
        [
            GateOp.gate("CRy", ("q", "a"), 0.7),
            GateOp.swap("a", "b"),
            GateOp.gate("CZ", ("b", "q")),
            GateOp.reset("b"),
        ],
    )
    return steps


STEPS = _steps()


@pytest.mark.parametrize("name", sorted(STEPS))
def test_compiled_step_matches_dense_oracle(name, rng):
    step = STEPS[name]
    dims, program = compile_step(step)
    assert [kind for kind, _ in program] == expected_kinds(step)
    maps = dense_maps(step)
    rho = random_density(rng, math.prod(dims))
    want = rho
    for _ in range(50):
        rho = run_compiled(program, dims, rho)
        want = dense_apply(maps, want)
        assert np.max(np.abs(rho - want)) <= 1e-12


def test_memory_step_program_shape():
    step = STEPS["memory-amplitude-damping-k5"]
    dims, program = compile_step(step)
    assert [kind for kind, _ in program] == ["unitary", "reset", "permute"]
    assert program[0][1].shape == (64, 64)
    assert program[2][1].shape == (64,)


# -- property test: random small circuits -------------------------------------


def _unitary(seed, n):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
    return q


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 4))
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    labels = [f"w{i}" for i in range(n)]
    layout = tuple(Wire(lab, d) for lab, d in zip(labels, dims))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["gate", "gate", "named", "swap", "reset"]))
        if kind == "named":
            name = draw(st.sampled_from(["X", "H", "CNOT", "CZ", "Ry", "CRy"]))
            arity = 2 if name.startswith("C") else 1
            qubits = [w for w in range(n) if dims[w] == 2]
            if len(qubits) >= arity:
                wires = draw(st.lists(st.sampled_from(qubits), min_size=arity,
                                      max_size=arity, unique=True))
                theta = draw(st.floats(-7.0, 7.0)) if name.endswith("Ry") else None
                ops.append(GateOp.gate(name, [labels[w] for w in wires], theta))
        elif kind == "reset":
            ops.append(GateOp.reset(labels[draw(st.integers(1, n - 1))]))
        elif kind == "swap":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            if dims[a] == dims[b]:
                ops.append(GateOp.swap(labels[a], labels[b]))
        else:
            wires = draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)
            )
            u = _unitary(draw(st.integers(0, 2**16)), math.prod(dims[w] for w in wires))
            ops.append(GateOp("unitary-apply", [labels[w] for w in wires], matrix=u))
    return StepCircuit("random", layout, (labels[0],), ops)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(step=circuits(), seed=st.integers(0, 2**16))
def test_random_circuits_match_oracle_and_keep_trace(step, seed):
    dims, program = compile_step(step)
    assert [kind for kind, _ in program] == expected_kinds(step)
    rho = random_density(np.random.default_rng(seed), math.prod(dims))
    got = run_compiled(program, dims, rho)
    assert np.max(np.abs(got - dense_apply(dense_maps(step), rho))) <= 1e-12
    assert abs(np.trace(got) - 1.0) <= 1e-12

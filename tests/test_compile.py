"""The compiled step program against the per-op dense oracle in conftest.

A program has two forms: the full layout (``apply_step``), which takes any
state of the whole register, and the carried register (``evolve``), which
holds every wire but those the step leaves in |0>.
"""

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
    apply_step,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    compile_step,
    run_compiled,
)
from oqsim.engine import evolve
from oqsim.qmath import DensityMatrix, Wire

from conftest import (
    dense_apply,
    dense_maps,
    dense_trajectory,
    random_channel_ops,
    random_density,
    sequential_with_storage,
)

KINDS = ("amplitude-damping", "dephasing")
THETAS = (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6, math.pi / 4, 1.1)
QUBITS3 = (Wire("q"), Wire("a"), Wire("b"))
ORACLE_STEPS = 50


def _mixed_unitary(seed, l):
    """sqrt(p_i) U_i for random weights p and Haar-ish unitaries U_i."""
    rng = np.random.default_rng(seed)
    ops = []
    for p in rng.dirichlet(np.ones(l)):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ops.append(math.sqrt(p) * q)
    return KrausChannel(2, ops, label=f"mixed-unitary-l{l}")


def _unitary(seed, n):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
    return q


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
    steps["sequential-memory-k3"] = sequential_with_storage(pauli, *THETAS[1:3])
    steps["sequential-l16"] = build_sequential_step(_mixed_unitary(3, 16))
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
    # the live-wire walk's edge cases: which wires hold an axis, and when
    steps["gate-after-reset"] = StepCircuit(
        "gate-after-reset", QUBITS3, ("q",),
        [
            GateOp.gate("CRy", ("q", "a"), 0.8),
            GateOp.reset("a"),
            GateOp.gate("H", ("a",)),
            GateOp.gate("CZ", ("a", "q")),
            GateOp.gate("CRy", ("q", "b"), 1.9),
            GateOp.reset("b"),
        ],
    )
    steps["reset-of-a-zero-wire"] = StepCircuit(
        "reset-zero", QUBITS3, ("q",),
        [
            GateOp.reset("b"),
            GateOp.gate("CRy", ("q", "a"), 1.2),
            GateOp.reset("a"),
            GateOp.reset("a"),
            GateOp.reset("b"),
        ],
    )
    steps["swap-live-and-zero"] = StepCircuit(
        "swap-live-zero", QUBITS3, ("q",),
        [
            GateOp.gate("CRy", ("q", "a"), 0.6),
            GateOp.reset("b"),
            GateOp.swap("a", "b"),
            GateOp.gate("CNOT", ("b", "q")),
            GateOp.reset("b"),
        ],
    )
    steps["swap-two-zero-wires"] = StepCircuit(
        "swap-zero-zero", QUBITS3, ("q",),
        [
            GateOp.reset("a"),
            GateOp.reset("b"),
            GateOp.swap("a", "b"),
            GateOp.gate("CRy", ("q", "b"), 0.5),
            GateOp.gate("CNOT", ("b", "q")),
            GateOp.reset("b"),
        ],
    )
    steps["qutrits"] = StepCircuit(  # a ends carried, in the |0> that the swap brings from b
        "qutrits", (Wire("q", 3), Wire("a", 3), Wire("b", 3)), ("q",),
        [
            GateOp("unitary-apply", ("q", "a"), matrix=_unitary(11, 9)),
            GateOp.reset("a"),
            GateOp.swap("a", "b"),
            GateOp("unitary-apply", ("b", "q"), matrix=_unitary(12, 9)),
            GateOp.reset("b"),
        ],
    )
    return steps


STEPS = _steps()


def _dims(step):
    return [w.dim for w in step.layout]


def embed_carried(rho, dims, carried):
    """``rho`` on the factors at ``carried``, |0><0| on every other, as a full matrix."""
    at = tuple(slice(None) if i in carried else 0 for i in range(len(dims)))
    full = np.zeros(dims * 2, dtype=complex)
    full[at + at] = rho.reshape([dims[i] for i in carried] * 2)
    return full.reshape(math.prod(dims), -1)


def _full_form_matches(step, rho, steps):
    maps, want = dense_maps(step), rho
    state = DensityMatrix(rho, step.layout)
    for _ in range(steps):
        state = apply_step(step, state)
        want = dense_apply(maps, want)
        assert np.max(np.abs(state.matrix - want)) <= 1e-12


def _carried_form_matches(step, rho, steps):
    """The carried program on ``rho`` is the oracle on the whole register,
    and the other wires stay in |0>."""
    dims = _dims(step)
    program = compile_step(step)
    carried = program[0]
    maps, want = dense_maps(step), embed_carried(rho, dims, carried)
    states = rho[np.newaxis]
    for _ in range(steps):
        states = run_compiled(program, states)
        want = dense_apply(maps, want)
        assert np.max(np.abs(embed_carried(states[0], dims, carried) - want)) <= 1e-12


@pytest.mark.parametrize("name", sorted(STEPS))
def test_compiled_step_matches_dense_oracle(name, rng):
    step = STEPS[name]
    _full_form_matches(step, random_density(rng, math.prod(_dims(step))), ORACLE_STEPS)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_carried_program_matches_dense_oracle(name, rng):
    step = STEPS[name]
    carried = compile_step(step)[0]
    rho = random_density(rng, math.prod(_dims(step)[i] for i in carried))
    _carried_form_matches(step, rho, ORACLE_STEPS)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_evolve_matches_dense_oracle_over_fifty_steps(name, rng):
    step = STEPS[name]
    system = tuple(w for w in step.layout if w.label in step.system)
    rho0 = DensityMatrix(random_density(rng, math.prod(w.dim for w in system)), system)
    got = evolve(step, [rho0], ORACLE_STEPS)[:, 0]
    for n, want in enumerate(dense_trajectory(step, rho0, ORACLE_STEPS)):
        assert np.max(np.abs(got[n] - want)) <= 1e-12, f"step {n}"


def _full_row_superop(step, full=False):
    """The carried map as a superoperator, from a walk over all d rows of the register: every
    op as its full-space Kraus set (conftest's ``dense_maps``), so a reset splits each operator
    K into the |0><j| K; the stack is kept to d d_c operators by R of a QR."""
    dims, carried = _dims(step), compile_step(step, full)[0]
    d, dc = math.prod(dims), math.prod(dims[i] for i in carried)
    at = tuple(slice(None) if i in carried else 0 for i in range(len(dims)))
    ops = np.zeros(dims + [dc], dtype=complex)
    ops[at] = np.eye(dc).reshape([dims[i] for i in carried] + [dc])
    ops = ops.reshape(1, d, dc)
    for kraus in dense_maps(step):
        ops = np.concatenate([k @ ops for k in kraus])
        if len(ops) > d * dc:
            ops = np.linalg.qr(ops.reshape(len(ops), -1), mode="r").reshape(-1, d, dc)
    ops = ops.reshape(-1, *dims, dc)[(slice(None), *at)].reshape(-1, dc, dc)
    return _superop(ops)


def _superop(kraus):
    dc = kraus.shape[1]
    return np.einsum("rij,rkl->ikjl", kraus, kraus.conj()).reshape(dc * dc, -1)


SMALL = [name for name in sorted(STEPS) if math.prod(_dims(STEPS[name])) <= 16]


@pytest.mark.parametrize(
    "name, full", [(name, False) for name in sorted(STEPS)] + [(name, True) for name in SMALL]
)
def test_live_wire_walk_gives_the_full_row_walks_map(name, full):
    step = STEPS[name]
    got = _superop(compile_step(step, full)[1])
    assert np.max(np.abs(got - _full_row_superop(step, full))) <= 1e-14


def test_a_reset_of_a_wire_in_zero_adds_no_operator():
    step = STEPS["reset-of-a-zero-wire"]
    plain = StepCircuit("plain", QUBITS3, ("q",), [step.ops[i] for i in (1, 2, 4)])  # b fresh
    assert compile_step(step)[1].shape == (2, 2, 2)
    for a, b in zip(compile_step(step), compile_step(plain)):
        assert np.array_equal(a, b)


def test_a_carried_wire_without_an_axis_gets_one_at_zero():
    carried, kraus, *_ = compile_step(STEPS["qutrits"])
    assert carried == (0, 1) and kraus.shape == (9, 9, 9)  # two qutrit resets: r = 3 * 3
    assert not np.any(kraus.reshape(9, 3, 3, 9)[:, :, 1:])  # a is |0> after every operator


# -- structure: what the carried register saves, pinned without timing -------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", range(2, 6))
def test_memory_step_carries_half_the_register_with_two_operators(kind, k):
    step = STEPS[f"memory-{kind}-k{k}"]
    carried, kraus, _, superop = compile_step(step)
    half = 2**k
    assert [step.wire_labels[i] for i in carried] == ["q"] + [f"e{i}" for i in range(1, k)]
    assert kraus.shape == (2, half, half) and superop is None


def test_memory_step_program_shape():
    carried, kraus, _, superop = compile_step(STEPS["memory-amplitude-damping-k5"])
    assert carried == (0, 1, 2, 3, 4)
    assert kraus.shape == (2, 32, 32) and superop is None


@pytest.mark.parametrize(
    "name", ["markovian-amplitude-damping", "markovian-dephasing", "sequential", "sequential-l16"]
)
def test_markovian_and_sequential_steps_carry_only_the_system(name):
    step = STEPS[name]
    carried, kraus, _, superop = compile_step(step)
    assert [step.wire_labels[i] for i in carried] == ["q"]
    assert kraus.shape[1:] == (2, 2) and superop.shape == (4, 4)


def test_sequential_l64_step_compresses_to_at_most_dc_squared_operators():
    step = build_sequential_step(_mixed_unitary(7, 64))
    assert sum(op.kind == "trace-reset" for op in step.ops) == 65
    carried, kraus, _, superop = compile_step(step)
    assert len(carried) == 1 and kraus.shape[1:] == (2, 2) and len(kraus) <= 4
    assert superop.shape == (4, 4)


def test_step_without_reset_is_one_operator_on_the_whole_register():
    step = STEPS["no-reset"]
    carried, kraus, _, superop = compile_step(step)
    assert carried == (0, 1, 2) and kraus.shape == (1, 8, 8) and superop is None


def test_full_layout_carries_every_wire():
    step = STEPS["memory-dephasing-k3"]
    carried, kraus, *_ = compile_step(step, full=True)
    assert carried == (0, 1, 2, 3) and kraus.shape == (2, 16, 16)


def test_a_swap_can_leave_the_system_wire_fresh_yet_it_stays_carried():
    step = STEPS["swap-only-segment"]  # q ends in the |0> that the reset of a left
    assert compile_step(step)[0] == (0, 1)


def test_states_in_one_call_equal_the_states_one_at_a_time(rng):
    for name in ("memory-amplitude-damping-k3", "sequential-memory-k3"):
        program = compile_step(STEPS[name])
        d = program[1].shape[1]
        states = np.array([random_density(rng, d) for _ in range(3)])
        together = run_compiled(program, states)
        for state, want in zip(states, together):
            assert np.array_equal(run_compiled(program, state[np.newaxis])[0], want)


# -- property test: random small circuits -------------------------------------


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
    rng = np.random.default_rng(seed)
    dims = _dims(step)
    carried, kraus, *_ = compile_step(step)
    _full_form_matches(step, random_density(rng, math.prod(dims)), ORACLE_STEPS)
    _carried_form_matches(step, random_density(rng, kraus.shape[1]), ORACLE_STEPS)
    completeness = np.einsum("rji,rjk->ik", kraus.conj(), kraus)
    assert np.max(np.abs(completeness - np.eye(kraus.shape[1]))) <= 1e-12
    assert len(kraus) <= kraus.shape[1] ** 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(step=circuits(), seed=st.integers(0, 2**16))
def test_random_circuits_evolve_like_the_oracle(step, seed):
    """Any wire dims and any r: the factor start, its switch and the dense steps."""
    rng = np.random.default_rng(seed)
    rho0 = DensityMatrix(random_density(rng, step.layout[0].dim), step.layout[:1])
    got = evolve(step, [rho0], 6)[:, 0]
    for n, want in enumerate(dense_trajectory(step, rho0, 6)):
        assert np.max(np.abs(got[n] - want)) <= 1e-12, f"step {n}"

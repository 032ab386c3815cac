"""The compiled step program against the per-op dense oracle in conftest.

A program has two forms: the full layout (``apply_step``), which takes any
state of the whole register, and the carried register (``evolve``), which
holds every wire but those the step leaves in |0>.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oqsim.circuit as circuit
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
from oqsim.cli import PRESETS, parse_angle
from oqsim.engine import evolve
from oqsim.qmath import DensityMatrix, Wire

from conftest import (
    EXAMPLE_STEPS,
    KINDS,
    THETAS,
    dense_apply,
    dense_maps,
    dense_trajectory,
    embed,
    full_kraus,
    kraus_apply,
    mixed_unitary,
    physical_pages,
    random_channel_ops,
    random_density,
)

QUBITS3 = (Wire("q"), Wire("a"), Wire("b"))
ORACLE_STEPS = 50


def _unitary(seed, n):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
    return q


def _steps():
    steps = dict(EXAMPLE_STEPS)
    for kind in KINDS:
        steps[f"memory-{kind}-k5"] = build_nonmarkovian_step(kind, MemorySpec(5, (*THETAS, 1.1)))
    steps["sequential-l16"] = build_sequential_step(mixed_unitary(3, 16))
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
    # the walk's edge cases: which wires have an axis of length 1, and when
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
    steps["dim-1-wires"] = StepCircuit(  # s and t have one value, so an axis of length 1
        "dim-1", (Wire("q"), Wire("s", 1), Wire("a"), Wire("t", 1)), ("q",),
        [
            GateOp("unitary-apply", ("q", "s"), matrix=_unitary(13, 2)),
            GateOp.gate("CRy", ("q", "a"), 1.4),
            GateOp.reset("s"),
            GateOp.swap("s", "t"),
            GateOp.reset("a"),
        ],
    )
    return steps


STEPS = _steps()


def _dims(step):
    return [w.dim for w in step.layout]


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
    maps, want = dense_maps(step), embed(rho, dims, carried)
    states = rho[np.newaxis]
    for _ in range(steps):
        states = run_compiled(program, states)
        want = dense_apply(maps, want)
        assert np.max(np.abs(embed(states[0], dims, carried) - want)) <= 1e-12


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


def test_dim_1_wires_stay_carried_beside_the_system():
    carried, kraus, *_ = compile_step(STEPS["dim-1-wires"])
    assert carried == (0, 1) and kraus.shape == (2, 2, 2)


def test_a_carried_wire_without_an_axis_gets_one_at_zero():
    carried, kraus, *_ = compile_step(STEPS["qutrits"])
    assert carried == (0, 1) and kraus.shape == (9, 9, 9)  # two qutrit resets: r = 3 * 3
    assert not np.any(kraus.reshape(9, 3, 3, 9)[:, :, 1:])  # a is |0> after every operator


# -- structure: what the carried register saves, pinned without timing -------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", range(2, 6))
def test_memory_step_carries_half_the_register_with_two_operators(kind, k):
    step = STEPS[f"memory-{kind}-k{k}"]
    carried, kraus, columns = compile_step(step)
    half = 2**k
    assert [step.wire_labels[i] for i in carried] == ["q"] + [f"e{i}" for i in range(1, k)]
    assert kraus.shape == (2, half, half) and columns is None


def test_memory_step_program_shape():
    carried, kraus, columns = compile_step(STEPS["memory-amplitude-damping-k5"])
    assert carried == (0, 1, 2, 3, 4)
    assert kraus.shape == (2, 32, 32) and columns is None


@pytest.mark.parametrize(
    "name", ["markovian-amplitude-damping", "markovian-dephasing", "sequential", "sequential-l16"]
)
def test_markovian_and_sequential_steps_carry_only_the_system(name):
    step = STEPS[name]
    carried, kraus, columns = compile_step(step)
    assert [step.wire_labels[i] for i in carried] == ["q"]
    assert kraus.shape[1:] == (2, 2) and columns is None


def test_sequential_l64_step_compresses_to_at_most_dc_squared_operators():
    step = build_sequential_step(mixed_unitary(7, 64))
    assert sum(op.kind == "trace-reset" for op in step.ops) == 65
    carried, kraus, columns = compile_step(step)
    assert len(carried) == 1 and kraus.shape[1:] == (2, 2) and len(kraus) <= 4
    assert columns is None


def test_step_without_reset_is_one_operator_on_the_whole_register():
    step = STEPS["no-reset"]
    carried, kraus, columns = compile_step(step)
    assert carried == (0, 1, 2) and kraus.shape == (1, 8, 8) and columns is None


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
    kraus = full_kraus(compile_step(step))
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


# -- the walk: one product per gate, a QR once per few resets -----------------


@st.composite
def reset_heavy_steps(draw):
    """Long steps with many resets and SWAPs onto wires in |0>, over qubit, qutrit and dim-1
    wires; or a sequential step of up to l = 96 operators."""
    if draw(st.booleans()):
        seed, l = draw(st.integers(0, 2**16)), draw(st.integers(1, 96))
        return build_sequential_step(mixed_unitary(seed, l))
    n = draw(st.integers(2, 4))
    dims = [draw(st.sampled_from([2, 3]))]
    dims += draw(st.lists(st.sampled_from([1, 2, 2, 3]), min_size=n - 1, max_size=n - 1))
    labels = [f"w{i}" for i in range(n)]
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["gate", "gate", "named", "reset", "reset", "swap"]))
        if kind == "reset":
            ops.append(GateOp.reset(labels[draw(st.integers(1, n - 1))]))
        elif kind == "swap":
            a = draw(st.integers(0, n - 1))
            partners = [b for b in range(n) if b != a and dims[b] == dims[a]]
            if partners:
                ops.append(GateOp.swap(labels[a], labels[draw(st.sampled_from(partners))]))
        elif kind == "named":  # real gates, so some steps compile to float64
            qubits = [w for w in range(n) if dims[w] == 2]
            if len(qubits) >= 2:
                a, b = draw(st.lists(st.sampled_from(qubits), min_size=2, max_size=2, unique=True))
                ops.append(GateOp.gate("CNOT", (labels[a], labels[b])))
            elif qubits:
                ops.append(GateOp.gate("Ry", (labels[qubits[0]],), draw(st.floats(0.0, 6.0))))
        else:
            wires = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
            u = _unitary(draw(st.integers(0, 2**16)), math.prod(dims[w] for w in wires))
            ops.append(GateOp("unitary-apply", [labels[w] for w in wires], matrix=u))
    layout = tuple(Wire(lab, d) for lab, d in zip(labels, dims))
    return StepCircuit("reset-heavy", layout, (labels[0],), ops)


def _recurring(*ops):
    """A step on qubits w0 (the system), w1 and w2 from op tuples ``("U", wires)``, each a
    different random unitary, ``("RESET", w)`` or ``("SWAP", a, b)``."""
    made = [
        GateOp("unitary-apply", op[1], matrix=_unitary(i, 2 ** len(op[1]))) if op[0] == "U"
        else GateOp.reset(op[1]) if op[0] == "RESET" else GateOp.swap(*op[1:])
        for i, op in enumerate(ops)
    ]
    return StepCircuit("recurring", (Wire("w0"), Wire("w1"), Wire("w2")), ("w0",), made)


# The wire tuple (w0, w1) recurs with w1 in other states: the walk plans a tuple once, but
# which of its wires are in |0>, and so each gate's sliced columns, must be read at each use.
W1_AT_ZERO_THEN_FULL_AFTER_A_GATE = _recurring(
    ("U", ("w0", "w1")), ("U", ("w0", "w1")), ("RESET", "w1"), ("U", ("w0", "w1")),
    ("RESET", "w1"),
)
W1_FULL_THEN_AT_ZERO_AFTER_A_RESET = _recurring(
    ("U", ("w0", "w1")), ("RESET", "w1"), ("U", ("w0", "w1")), ("RESET", "w1"),
    ("U", ("w0", "w1")),
)
W1_AT_ZERO_THEN_FULL_AFTER_A_RESET_AND_A_SWAP = _recurring(
    ("U", ("w2",)), ("U", ("w0", "w1")), ("RESET", "w1"), ("SWAP", "w1", "w2"),
    ("U", ("w0", "w1")), ("RESET", "w1"), ("U", ("w0", "w1")), ("RESET", "w1"),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(step=reset_heavy_steps(), seed=st.integers(0, 2**16))
@example(step=W1_AT_ZERO_THEN_FULL_AFTER_A_GATE, seed=11)
@example(step=W1_FULL_THEN_AT_ZERO_AFTER_A_RESET, seed=12)
@example(step=W1_AT_ZERO_THEN_FULL_AFTER_A_RESET_AND_A_SWAP, seed=13)
def test_reset_heavy_steps_compile_to_the_oracles_map_with_at_most_dc_squared_operators(
    step, seed
):
    rng = np.random.default_rng(seed)
    carried, full = (compile_step(step, full)[1] for full in (False, True))
    for kraus in carried, full:
        assert len(kraus) <= kraus.shape[1] ** 2
    _carried_form_matches(step, random_density(rng, carried.shape[1]), 3)
    _full_form_matches(step, random_density(rng, full.shape[1]), 3)


def test_sequential_l64_compile_runs_a_qr_at_every_fourth_reset(monkeypatch):
    """64 operators give 65 resets at n = rows d_c = 8: r doubles from 8 to 128 before each QR
    in the walk (2 r n^3 > CALL_MACS), then one final QR to r <= d_c^2 = 4."""
    step = build_sequential_step(mixed_unitary(7, 64))
    shapes, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: shapes.append(a.shape) or qr(a, mode=mode))
    kraus = compile_step(step)[1]
    assert shapes[:-1] == [(128, 8)] * 15 and shapes[-1][1] == 4 and len(kraus) <= 4


def test_sequential_l64_compile_runs_one_product_per_factor(monkeypatch):
    """Each factor's CNOT e -> c folds into its controlled unitary: of the 129 gates (the X,
    then a unitary and a CNOT per operator), 65 are products on the operator tensor."""
    step = build_sequential_step(mixed_unitary(7, 64))
    products, apply_rows = [], circuit._apply_rows

    def counted(t, gate, plan):
        products.append(gate.shape)
        return apply_rows(t, gate, plan)

    monkeypatch.setattr(circuit, "_apply_rows", counted)
    compile_step(step)
    assert sum(op.kind == "unitary-apply" for op in step.ops) == 129 and len(products) == 65


LIBRARY = {1: ["X", "Y", "Z", "H"], 2: ["CNOT", "CY", "CZ", "SWAP"]}


@st.composite
def folding_steps(draw):
    """Steps on 2-4 wires, one of them a qutrit, whose gates reuse a few wire tuples drawn in
    any order (a tuple's reuse acts in layout order), with library gates right after a gate on
    a superset of their wires (they fold into it) or anywhere, resets, swaps and fresh wires."""
    n = draw(st.integers(2, 4))
    dims = [2] * n
    dims[draw(st.integers(0, n - 1))] = 3
    labels = [f"w{i}" for i in range(n)]
    pool = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 3),
                                  unique=True), min_size=1, max_size=3))
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["gate", "gate", "fold", "fold", "named", "reset", "swap"]))
        if kind == "gate":
            wires = draw(st.sampled_from(pool))
            u = _unitary(draw(st.integers(0, 2**16)), math.prod(dims[w] for w in wires))
            ops.append(GateOp("unitary-apply", [labels[w] for w in wires], matrix=u))
        elif kind == "reset":
            ops.append(GateOp.reset(labels[draw(st.integers(1, n - 1))]))
        elif kind == "swap":
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            if dims[a] == dims[b]:
                ops.append(GateOp.swap(labels[a], labels[b]))
        else:  # a library gate on qubits; "fold" draws them from the gate just before
            around = ops[-1].wires if kind == "fold" and ops and ops[-1].kind == "unitary-apply" \
                else labels
            qubits = [w for w in around if dims[labels.index(w)] == 2]
            arity = draw(st.integers(1, min(2, len(qubits)))) if qubits else 0
            if arity:
                wires = draw(st.permutations(qubits))[:arity]
                ops.append(GateOp.gate(draw(st.sampled_from(LIBRARY[arity])), wires))
    layout = tuple(Wire(lab, d) for lab, d in zip(labels, dims))
    return StepCircuit("folding", layout, (labels[0],), ops)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(step=folding_steps(), seed=st.integers(0, 2**16))
def test_reordered_and_folded_gates_compile_to_the_oracles_map(step, seed):
    rng = np.random.default_rng(seed)
    carried, full = (compile_step(step, full)[1] for full in (False, True))
    _carried_form_matches(step, random_density(rng, carried.shape[1]), 3)
    _full_form_matches(step, random_density(rng, full.shape[1]), 3)


# -- the Kraus form: each K_j on its nonzero columns C_j only -----------------


def _program(stack, gather):
    """A program for an ``(r, d, d)`` Kraus stack; with ``gather`` every zero column is dropped
    (the gather priced at 0 multiply-adds), else none is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit, "CALL_MACS", 0 if gather else math.inf)
        return (None, *circuit._kraus_form(stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)))


def _masked(seed, masks):
    """Random K_j, scaled to keep the images of order 1, that are exactly zero off their masks."""
    rng, masks = np.random.default_rng(seed), np.array(masks, dtype=bool)
    r, d = masks.shape
    stack = rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d))
    return stack * masks[:, np.newaxis] / math.sqrt(2 * r * d)


@st.composite
def masked_stacks(draw):
    """r operators with unequal column masks, on both sides of r = d: a gather's rule reads no r."""
    d = draw(st.integers(2, 7))
    r = draw(st.integers(1, d + 1))
    row = st.lists(st.booleans(), min_size=d, max_size=d)
    return _masked(draw(st.integers(0, 2**16)), draw(st.lists(row, min_size=r, max_size=r)))


C_IS_1 = _masked(1, [[0, 1, 0, 0], [0, 0, 0, 1]])
ONE_ZERO_OPERATOR = _masked(2, [[1, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 1, 1, 1]])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(stack=masked_stacks(), n=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(stack=C_IS_1, n=2, seed=3)
@example(stack=ONE_ZERO_OPERATOR, n=3, seed=4)
def test_kraus_form_steps_states_like_the_kraus_sum(stack, n, seed):
    rng = np.random.default_rng(seed)
    r, d, _ = stack.shape
    states = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))  # any matrix
    want = np.array([kraus_apply(stack, rho) for rho in states])
    c = int(stack.any(axis=1).sum(axis=1).max())
    for gather in (False, True):
        program = _program(stack, gather)
        assert (program[2] is not None) == (gather and c < d)
        assert program[1].shape == (r, d, c if program[2] is not None else d)
        got = run_compiled(program, states)
        assert np.max(np.abs(got - want)) <= 1e-12
        for rho, one in zip(states, got):
            assert np.array_equal(run_compiled(program, rho[np.newaxis])[0], one)
        out = states.copy()
        assert run_compiled(program, out, out=out) is out and np.array_equal(out, got)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    stack=masked_stacks(), n=st.integers(1, 3), width=st.integers(1, 6), seed=st.integers(0, 2**16)
)
@example(stack=C_IS_1, n=2, width=3, seed=5)
@example(stack=ONE_ZERO_OPERATOR, n=1, width=2, seed=6)
def test_kraus_form_steps_factors_like_the_kraus_sum(stack, n, width, seed):
    """W' = [K_1 W, .., K_r W], and W' (I_r (x) X) W'^dag = sum_j K_j W X W^dag K_j^dag."""
    rng = np.random.default_rng(seed)
    r, d, _ = stack.shape
    m = min(width, d - 1)
    factors = (rng.normal(size=(n, d, m)) + 1j * rng.normal(size=(n, d, m))) / math.sqrt(d)
    x = random_density(rng, m)
    for gather in (False, True):
        program = _program(stack, gather)
        got = run_compiled(program, factors)
        assert got.shape == (n, d, r * m)
        side_by_side = (stack @ factors[:, np.newaxis]).transpose(0, 2, 1, 3).reshape(got.shape)
        assert np.max(np.abs(got - side_by_side)) <= 1e-12
        for w, wide in zip(factors, got):
            state = wide @ np.kron(np.eye(r), x) @ wide.conj().T
            assert np.max(np.abs(state - kraus_apply(stack, w @ x @ w.conj().T))) <= 1e-12
            assert np.array_equal(run_compiled(program, w[np.newaxis])[0], wide)


def _memory_step(kind, k):
    return build_nonmarkovian_step(kind, MemorySpec(k, tuple(0.3 + 0.7 * i for i in range(k))))


@pytest.mark.parametrize("k", [6, 7, 8])
def test_amplitude_damping_memory_steps_from_k6_keep_three_quarters_of_the_columns(k):
    """|q e_1> = |0 1-j> never reaches the reset value j: a quarter of each K_j's columns is 0."""
    program = compile_step(_memory_step("amplitude-damping", k))
    _, kraus, columns = program
    dc, c = 2**k, 3 * 2**k // 4
    assert kraus.shape == (2, dc, c) and columns.shape == (2, c)
    assert kraus.transpose(1, 0, 2).flags.c_contiguous
    full = full_kraus(program)
    assert [np.flatnonzero(op.any(axis=0)).tolist() for op in full] == columns.tolist()


def test_a_compile_that_outgrows_physical_memory_raises_memory_error(monkeypatch):
    """k = 6 (d = 128, d_c = 64, real): the walk's three largest tensors are 3 * 128 * 64 * 8 B
    = 48 pages; one page fewer refuses before anything is allocated."""
    step = _memory_step("amplitude-damping", 6)
    physical_pages(monkeypatch, 48)
    assert compile_step(step)[1].shape[1] == 64
    physical_pages(monkeypatch, 47)
    with pytest.raises(MemoryError, match="dim 128 register"):
        compile_step(step)


def _arms():
    steps = {}
    for fig, cfg in PRESETS.items():
        thetas = tuple(parse_angle(t) for t in cfg["thetas"].split(","))
        steps[f"{fig}-markovian"] = build_markovian_step(cfg["channel"], parse_angle(cfg["theta"]))
        steps[f"{fig}-memory"] = build_nonmarkovian_step(
            cfg["channel"], MemorySpec(int(cfg["k"]), thetas)
        )
    rng = np.random.default_rng(7)
    for kind in KINDS:  # a blp_grid point: a k=3 step with random angles
        steps[f"grid-{kind}"] = build_nonmarkovian_step(
            kind, MemorySpec(3, tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        )
        steps[f"markovian-{kind}"] = build_markovian_step(kind, 1.1)
    steps["sequential"] = build_sequential_step(pauli_channel(0.05, 0.1, 0.15))
    steps["sequential-l64"] = build_sequential_step(mixed_unitary(7, 64))
    steps.update({f"dephasing-k{k}": _memory_step("dephasing", k) for k in range(2, 10)})
    return steps


@pytest.mark.parametrize("name", sorted(_arms()))
def test_preset_grid_markovian_sequential_and_dephasing_steps_keep_every_column(name):
    _, kraus, columns = compile_step(_arms()[name])
    assert columns is None and kraus.shape[1] == kraus.shape[2]
    assert kraus.transpose(1, 0, 2).flags.c_contiguous  # K~ is one (d_c, r d_c) array


# -- real circuits compile to real programs -----------------------------------


def _paper_steps():
    """The paper's circuits: Markovian, both memory kinds at k = 2..9, blp_grid points (k = 3)."""
    steps = {f"markovian-{kind}": build_markovian_step(kind, 1.1) for kind in KINDS}
    rng = np.random.default_rng(7)
    for kind in KINDS:
        steps.update({f"memory-{kind}-k{k}": _memory_step(kind, k) for k in range(2, 10)})
        steps[f"grid-{kind}"] = build_nonmarkovian_step(
            kind, MemorySpec(3, tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        )
    return steps


PAPER_STEPS = _paper_steps()


def _with_gate(op):
    """The Markovian damping step with ``op`` on q after its coupling, before the reset."""
    step = build_markovian_step("amplitude-damping", 1.1)
    return StepCircuit("with-gate", step.layout, step.system, [*step.ops[:-1], op, step.ops[-1]])


COMPLEX_STEPS = {
    "sequential-l64": build_sequential_step(mixed_unitary(7, 64)),  # Haar factors
    "pauli-y": _with_gate(GateOp.gate("Y", ("q",))),
    "imaginary-1e-300": _with_gate(
        GateOp("unitary-apply", ("q",), matrix=np.diag([1.0, 1.0 + 1e-300j]))
    ),
}


@pytest.mark.parametrize("name", sorted(PAPER_STEPS))
def test_paper_steps_compile_to_float64(name):
    _, kraus, _ = compile_step(PAPER_STEPS[name])
    assert kraus.dtype == np.float64


@pytest.mark.parametrize("name", sorted(COMPLEX_STEPS))
def test_a_gate_with_any_imaginary_part_keeps_the_program_complex(name, rng):
    step = COMPLEX_STEPS[name]
    _, kraus, _ = program = compile_step(step)
    assert kraus.dtype == np.complex128
    rho = random_density(rng, 2)
    want = dense_trajectory(step, DensityMatrix(rho, (Wire("q"),)), 1)[1]
    got = run_compiled(program, rho[np.newaxis])[0]
    assert np.max(np.abs(got - want)) <= 1e-12

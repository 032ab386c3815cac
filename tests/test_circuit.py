import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.channels import (
    InvalidChannelError,
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    amplitude_damping,
    apply_channel,
    dephasing,
    pauli_channel,
)
from oqsim.circuit import (
    BuilderError,
    CircuitFormatError,
    GateOp,
    MemorySpec,
    StepCircuit,
    apply_step,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    compile_step,
    dump_circuit,
    parse_circuit,
    same_circuit,
    standard_gate,
)
from oqsim.qmath import (
    DensityMatrix,
    DimensionMismatchError,
    Wire,
    partial_trace,
    tensor_product,
)

from conftest import KET0, KET1, KETP, kraus_apply, proj, qstate, random_density
from test_compile import circuits


def env_zero(k):
    out = proj(KET0)
    for _ in range(k - 1):
        out = np.kron(out, proj(KET0))
    return out


def full_state(rho_q, step):
    """System state tensored with |0..0| on the step's other wires."""
    blocks = []
    for w in step.layout:
        if w.label in step.system:
            blocks.append(np.asarray(rho_q, dtype=complex))
        else:
            z = np.zeros((w.dim, w.dim), dtype=complex)
            z[0, 0] = 1.0
            blocks.append(z)
    mat = blocks[0]
    for b in blocks[1:]:
        mat = np.kron(mat, b)
    return DensityMatrix(mat, step.layout)


def reduced_system(state, step):
    red = state
    for w in reversed(step.layout):
        if w.label not in step.system:
            red = partial_trace(red, w.label)
    return red


class TestStandardGate:
    def test_ry_zero_is_identity(self):
        assert np.allclose(standard_gate("Ry", 0.0), np.eye(2), atol=1e-15)

    def test_ry_pi_flips(self):
        out = standard_gate("Ry", math.pi) @ KET0
        assert np.allclose(out, KET1, atol=1e-12)

    def test_ry_amplitude_convention(self):
        theta = 0.73
        out = standard_gate("Ry", theta) @ KET0
        assert abs(out[1] - math.sin(theta / 2)) < 1e-15

    def test_cnot_first_wire_controls(self):
        ket10 = np.zeros(4)
        ket10[2] = 1.0
        out = standard_gate("CNOT") @ ket10
        want = np.zeros(4)
        want[3] = 1.0  # |11>
        assert np.allclose(out, want, atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(BuilderError, match="FOO"):
            standard_gate("FOO")

    def test_theta_requirements(self):
        with pytest.raises(BuilderError):
            standard_gate("Ry")
        with pytest.raises(BuilderError):
            standard_gate("X", 0.4)

    def test_all_named_gates_unitary(self):
        from oqsim.qmath import is_unitary

        for name in ("X", "Y", "Z", "H", "CNOT", "CY", "CZ", "SWAP"):
            assert is_unitary(standard_gate(name))
        for name in ("Ry", "CRy"):
            assert is_unitary(standard_gate(name, 1.1))

    def test_aliases(self):
        assert np.array_equal(standard_gate("CX"), standard_gate("CNOT"))
        assert np.array_equal(standard_gate("RY", 0.5), standard_gate("Ry", 0.5))


class TestStepCircuitInvariants:
    def test_unknown_wire_rejected(self):
        with pytest.raises(BuilderError, match="unknown wire"):
            StepCircuit("bad", (Wire("q"),), ("q",), [GateOp.reset("e")])

    def test_reset_on_system_rejected(self):
        with pytest.raises(BuilderError, match="system"):
            StepCircuit("bad", (Wire("q"), Wire("e")), ("q",), [GateOp.reset("q")])

    def test_gate_dim_mismatch_rejected(self):
        op = GateOp.gate("CNOT", ("q",))
        with pytest.raises(BuilderError, match="matrix dim"):
            StepCircuit("bad", (Wire("q"), Wire("e")), ("q",), [op])

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(BuilderError, match="unitary"):
            GateOp("unitary-apply", ("q",), matrix=np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("name,match", [
        ("mine", "unknown gate name 'mine'"),
        ("X", "gate X given a matrix other than its library matrix"),
        ("x", "gate name 'x' is not canonical; use 'X'"),
    ])
    def test_named_op_must_be_its_library_gate(self, name, match):
        with pytest.raises(BuilderError, match=match):
            GateOp("unitary-apply", ("q",), name=name, matrix=np.eye(2))

    def test_named_op_takes_the_library_matrix(self):
        op = GateOp("unitary-apply", ("e",), name="Ry", theta=0.3)
        assert np.array_equal(op.matrix, standard_gate("Ry", 0.3))

    @pytest.mark.parametrize("layout,op,message", [
        ((Wire("a", 4),), GateOp.gate("CNOT", ("a",)), "gate CNOT given 1 wires"),
        ((Wire("a", 1), Wire("b")), GateOp.gate("X", ("a", "b")), "gate X given 2 wires"),
    ])
    def test_named_gate_on_the_wrong_wire_count_rejected(self, layout, op, message):
        # the wire dims match the matrix, but a named gate takes one qubit per wire
        with pytest.raises(BuilderError, match=f"^{message}$"):
            StepCircuit("bad", layout, ("a",), [op])

    @pytest.mark.parametrize("op", [GateOp.gate("CNOT", ("q", "q")), GateOp.swap("e", "e")])
    def test_op_naming_a_wire_twice_rejected(self, op):
        with pytest.raises(BuilderError, match="names a wire twice"):
            StepCircuit("bad", (Wire("q"), Wire("e")), ("q",), [op])

    @pytest.mark.parametrize("dim", [0, -1])
    def test_wire_dim_below_one_rejected(self, dim):
        with pytest.raises(BuilderError, match=f"wire 'e' has dim {dim} < 1"):
            StepCircuit("bad", (Wire("q"), Wire("e", dim)), ("q",), [])

    def test_swap_between_unequal_dims_rejected(self):
        with pytest.raises(BuilderError, match=r"^swap between unequal dims 2 and 3$"):
            StepCircuit("bad", (Wire("q"), Wire("a", 3)), ("q",), [GateOp.swap("q", "a")])

    @pytest.mark.parametrize("kind,wires,message", [
        ("measure", ("q",), "unknown op kind 'measure'"),
        ("trace-reset", ("q", "e"), "trace-reset targets exactly one wire"),
        ("swap", ("q",), "swap targets exactly two wires"),
        ("unitary-apply", ("q",), "unitary-apply needs a matrix"),
    ])
    def test_malformed_op_rejected(self, kind, wires, message):
        with pytest.raises(BuilderError, match=f"^{message}$"):
            GateOp(kind, wires)

    def test_an_op_keeps_only_the_fields_its_kind_uses(self):
        reset = GateOp("trace-reset", ("e",), matrix=np.eye(3), theta=0.3)
        swap = GateOp("swap", ("q", "e"), matrix=np.eye(4), theta=0.3)
        unnamed = GateOp("unitary-apply", ("q",), matrix=standard_gate("X"), theta=0.3)
        assert (reset.name, reset.matrix, reset.theta) == (None, None, None)
        assert (swap.name, swap.matrix, swap.theta) == ("SWAP", None, None)
        assert (unnamed.name, unnamed.theta) == (None, None)
        step = StepCircuit("given", (Wire("q"), Wire("e")), ("q",), [swap, unnamed, reset])
        assert same_circuit(parse_circuit(dump_circuit(step)), step)

    def test_swap_op_carries_no_matrix(self):
        op = GateOp.swap("q", "a")
        assert (op.kind, op.wires, op.name, op.matrix) == ("swap", ("q", "a"), "SWAP", None)
        assert repr(op) == "GateOp(SWAP on ('q', 'a'))"
        step = StepCircuit("qutrits", (Wire("q", 3), Wire("a", 3)), ("q",), [op])
        assert '\n["SWAP", "q", "a"]\n' in dump_circuit(step)
        carried, kraus, _, superop = compile_step(step)
        assert carried == (0, 1) and superop is None
        assert np.array_equal(kraus, np.eye(9)[[[0, 3, 6, 1, 4, 7, 2, 5, 8]]])


class TestMarkovianStep:
    def test_theta_zero_identity(self, rng):
        step = build_markovian_step("amplitude-damping", 0.0)
        rho = random_density(rng)
        out = apply_step(step, full_state(rho, step))
        assert np.allclose(
            reduced_system(out, step).matrix, rho, atol=1e-12
        )

    def test_damping_one_step_population(self):
        step = build_markovian_step("amplitude-damping", math.pi / 10)
        out = apply_step(step, full_state(proj(KET1), step))
        p1 = reduced_system(out, step).matrix[1, 1].real
        assert abs(p1 - 0.9755282581475768) < 1e-12

    def test_dephasing_one_step_population(self):
        step = build_markovian_step("dephasing", math.pi / 5)
        out = apply_step(step, full_state(proj(KETP), step))
        red = reduced_system(out, step).matrix
        pop = np.real(np.trace(proj(KETP) @ red))
        assert abs(pop - 0.9045084971874737) < 1e-12

    @pytest.mark.parametrize("kind,theta", [
        ("amplitude-damping", math.pi / 10),
        ("amplitude-damping", 1.1),
        ("dephasing", math.pi / 5),
        ("dephasing", 2.0),
    ])
    def test_channel_equivalence(self, rng, kind, theta):
        # one dilated step equals the Kraus map, state by state
        step = build_markovian_step(kind, theta)
        gamma = math.sin(theta / 2)
        ch = amplitude_damping(gamma) if kind == "amplitude-damping" else dephasing(gamma)
        for _ in range(50):
            rho = random_density(rng)
            red = reduced_system(apply_step(step, full_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            assert np.max(np.abs(red.matrix - want.matrix)) < 1e-10

    @pytest.mark.parametrize("theta", [-0.1, 2 * math.pi])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(BuilderError, match=rf"^theta {theta} outside \[0, 2\*pi\)$"):
            build_markovian_step("dephasing", theta)

    def test_unknown_kind(self):
        with pytest.raises(BuilderError):
            build_markovian_step("depolarizing", 0.3)

    def test_op_structure(self):
        step = build_markovian_step("amplitude-damping", 0.2)
        assert [op.kind for op in step.ops] == [
            "unitary-apply",
            "unitary-apply",
            "trace-reset",
        ]
        assert [op.name for op in step.ops[:2]] == ["CRy", "CNOT"]


class TestNonMarkovianStep:
    def test_memory_spec_rejects_k_below_one_and_angles_out_of_range(self):
        with pytest.raises(BuilderError, match=r"^memory order k=0 must be >= 1$"):
            MemorySpec(0, ())
        with pytest.raises(BuilderError, match=r"^angle 7.0 outside \[0, 2\*pi\)$"):
            MemorySpec(2, (0.1, 7.0))

    @pytest.mark.parametrize("kind,theta", [
        ("amplitude-damping", math.pi / 10),
        ("dephasing", math.pi / 5),
    ])
    def test_zero_memory_reduces_to_markovian(self, kind, theta):
        nm = build_nonmarkovian_step(kind, MemorySpec(3, (theta, 0.0, 0.0)))
        mk = build_markovian_step(kind, theta)
        start = proj(KET1) if kind == "amplitude-damping" else proj(KETP)
        rho_nm = full_state(start, nm)
        rho_mk = full_state(start, mk)
        for _ in range(50):
            rho_nm = apply_step(nm, rho_nm)
            rho_mk = apply_step(mk, rho_mk)
            a = reduced_system(rho_nm, nm).matrix
            b = reduced_system(rho_mk, mk).matrix
            assert np.max(np.abs(a - b)) < 1e-10

    def test_damping_memory_is_nonmonotone(self):
        step = build_nonmarkovian_step(
            "amplitude-damping", MemorySpec(3, (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6))
        )
        rho = full_state(proj(KET1), step)
        pops = [reduced_system(rho, step).matrix[1, 1].real]
        for _ in range(30):
            rho = apply_step(step, rho)
            pops.append(reduced_system(rho, step).matrix[1, 1].real)
        assert any(pops[i + 1] > pops[i] for i in range(len(pops) - 1))

    def test_dephasing_memory_limit(self):
        step = build_nonmarkovian_step(
            "dephasing", MemorySpec(3, (math.pi / 5, math.pi / 4, math.pi / 2))
        )
        rho = full_state(proj(KETP), step)
        pops = [np.real(np.trace(proj(KETP) @ reduced_system(rho, step).matrix))]
        for _ in range(100):
            rho = apply_step(step, rho)
            pops.append(np.real(np.trace(proj(KETP) @ reduced_system(rho, step).matrix)))
        diffs = np.diff(pops)
        assert (diffs > 1e-9).any()
        assert abs(pops[-1] - 0.5) <= 0.05

    def test_swap_bookkeeping(self):
        thetas = (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6)
        step = build_nonmarkovian_step("amplitude-damping", MemorySpec(3, thetas))
        out = apply_step(step, full_state(proj(KET1), step))
        # e1 now carries the second-order rotation written this step; e3 is fresh
        e1 = out
        for label in ("e3", "e2", "q"):
            e1 = partial_trace(e1, label)
        ry = standard_gate("Ry", thetas[1])
        want = ry @ proj(KET0) @ ry.conj().T
        assert np.max(np.abs(e1.matrix - want)) < 1e-10
        e3 = out
        for label in ("e2", "e1", "q"):
            e3 = partial_trace(e3, label)
        assert np.max(np.abs(e3.matrix - proj(KET0))) < 1e-10

    def test_k_below_two_rejected(self):
        with pytest.raises(BuilderError):
            build_nonmarkovian_step("amplitude-damping", MemorySpec(1, (0.3,)))

    def test_thetas_length_mismatch(self):
        with pytest.raises(BuilderError):
            MemorySpec(3, (0.1, 0.2))

    def test_op_count(self):
        step = build_nonmarkovian_step(
            "dephasing", MemorySpec(3, (0.1, 0.2, 0.3))
        )
        # 3 rotations + coupling + reset + 2 swaps
        assert len(step.ops) == 7


class TestSequentialStep:
    def test_zero_probability_identity(self, rng):
        step = build_sequential_step(pauli_channel(0, 0, 0))
        rho = random_density(rng)
        out = reduced_system(apply_step(step, full_state(rho, step)), step)
        assert np.max(np.abs(out.matrix - rho)) < 1e-12

    def test_layout_is_three_qubits(self):
        step = build_sequential_step(pauli_channel(0.01, 0.01, 0.01))
        assert step.wire_labels == ("c", "q", "e")

    def test_small_epsilon_close_to_channel(self, rng):
        eps = 0.01
        ch = pauli_channel(eps, eps, eps)
        step = build_sequential_step(ch)
        for _ in range(20):
            rho = random_density(rng)
            red = reduced_system(apply_step(step, full_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            dist = 0.5 * np.abs(np.linalg.eigvalsh(red.matrix - want.matrix)).sum()
            assert dist <= 5e-4

    def test_error_is_zero_at_every_strength(self, rng):
        states = [random_density(rng) for _ in range(20)]
        for eps in (0.04, 0.02, 0.01, 0.005):
            ch = pauli_channel(eps, eps, eps)
            step = build_sequential_step(ch)
            for rho in states:
                red = reduced_system(apply_step(step, full_state(rho, step)), step)
                want = apply_channel(ch, qstate(rho))
                dist = 0.5 * np.abs(np.linalg.eigvalsh(red.matrix - want.matrix)).sum()
                assert dist <= 1e-12, eps

    def test_constant_width_across_rank(self):
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        for l in (4, 8, 16):
            ops = [math.sqrt(1.0 / l) * paulis[i % 3] for i in range(l)]
            ch = KrausChannel(2, ops, label=f"l{l}")
            step = build_sequential_step(ch)
            assert len(step.layout) == 3
            dil = build_dilation_step(ch)
            assert len(dil.layout) == 1 + math.ceil(math.log2(l))

    def test_non_unitary_kraus_rejected(self):
        with pytest.raises(BuilderError, match="stinespring"):
            build_sequential_step(amplitude_damping(0.3))

    def test_non_pauli_unitary_part_exact(self, rng):
        # a single jump factor makes the sequential step reproduce a
        # two-operator scaled-unitary channel with no approximation at all
        p = 0.2
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        ch = KrausChannel(2, [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * h], label="hmix")
        step = build_sequential_step(ch)
        assert any(op.kind == "unitary-apply" and op.name is None for op in step.ops)
        for _ in range(10):
            rho = random_density(rng)
            red = reduced_system(apply_step(step, full_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            assert np.max(np.abs(red.matrix - want.matrix)) < 1e-10

    def test_invalid_channel_rejected(self):
        # an incomplete set never reaches the builder: construction refuses it
        with pytest.raises(InvalidChannelError, match="completeness"):
            KrausChannel(2, [0.9 * PAULI_X])

    def test_non_qubit_rejected(self, rng):
        u = np.eye(3, dtype=complex)
        with pytest.raises(BuilderError):
            build_sequential_step(KrausChannel(3, [u]))


class TestDilationStep:
    def test_matches_channel(self, rng):
        ch = pauli_channel(0.1, 0.15, 0.05)
        step = build_dilation_step(ch)
        for _ in range(10):
            rho = random_density(rng)
            red = reduced_system(apply_step(step, full_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            assert np.max(np.abs(red.matrix - want.matrix)) < 1e-9

    def test_amplitude_damping_single_env_qubit(self):
        step = build_dilation_step(amplitude_damping(0.3))
        assert [w.label for w in step.layout] == ["q", "e1"]


class TestApplyStep:
    def test_empty_ops_identity(self, rng):
        step = StepCircuit("noop", (Wire("q"),), ("q",), [])
        rho = qstate(random_density(rng))
        out = apply_step(step, rho)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_reset_semantics(self, rng):
        step = StepCircuit(
            "reset-e", (Wire("q"), Wire("e")), ("q",), [GateOp.reset("e")]
        )
        rho_q = random_density(rng)
        state = DensityMatrix(np.kron(rho_q, proj(KET1)), step.layout)
        out = apply_step(step, state)
        assert np.allclose(out.matrix, np.kron(rho_q, proj(KET0)), atol=1e-12)

    def test_two_markovian_steps(self):
        theta = math.pi / 10
        gamma = math.sin(theta / 2)
        step = build_markovian_step("amplitude-damping", theta)
        state = full_state(proj(KET1), step)
        state = apply_step(step, apply_step(step, state))
        p1 = reduced_system(state, step).matrix[1, 1].real
        assert abs(p1 - (1 - gamma**2) ** 2) < 1e-12

    def test_layout_mismatch(self, rng):
        step = build_markovian_step("dephasing", 0.4)
        with pytest.raises(DimensionMismatchError):
            apply_step(step, qstate(random_density(rng)))

    def test_outputs_remain_valid_states(self, rng):
        steps = [
            build_markovian_step("amplitude-damping", 1.0),
            build_nonmarkovian_step("dephasing", MemorySpec(2, (0.9, 2.2))),
            build_sequential_step(pauli_channel(0.05, 0.1, 0.02)),
        ]
        for step in steps:
            state = full_state(random_density(rng), step)
            for _ in range(10):
                state = apply_step(step, state)  # constructor re-validates
                assert abs(np.trace(state.matrix) - 1) < 1e-10


def _dump_text(wires, system, ops, label=""):
    return json.dumps({"label": label, "wires": wires, "system": system, "ops": ops})


LABELS = st.text(st.sampled_from(" \n\t:#\"\\aé量") | st.characters(), max_size=6)


@st.composite
def _relabelled(draw, steps):
    """A step of ``steps`` with its label and wire labels drawn from arbitrary text."""
    step = draw(steps)
    new = draw(st.lists(LABELS, min_size=len(step.layout), max_size=len(step.layout), unique=True))
    names = dict(zip(step.wire_labels, new))
    ops = [
        GateOp(op.kind, [names[w] for w in op.wires], name=op.name,
               matrix=op.matrix if op.name is None else None, theta=op.theta)
        for op in step.ops
    ]
    layout = [Wire(names[w.label], w.dim) for w in step.layout]
    return StepCircuit(draw(LABELS), layout, [names[w] for w in step.system], ops)


# arbitrary JSON, and objects near the dump form whose parts may be arbitrary JSON
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(["GATE", "RESET", "SWAP", "UNITARY", "q", "e", "X", "CNOT", "Ry"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
WIRE_LISTS = st.lists(st.sampled_from(["q", "e", "z"]), max_size=3)
OP_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(["GATE", "UNITARY"]), st.sampled_from(["X", "CNOT", "Ry", "H"]) | WIRE_LISTS,
              WIRE_LISTS | JSON, JSON).map(list).map(lambda e: e[: 3 + (e[-1] is not None)]),
    st.tuples(st.just("RESET"), st.sampled_from(["q", "e", "z"])).map(list),
    st.tuples(st.just("SWAP"), st.sampled_from(["q", "e"]), st.sampled_from(["q", "e", "z"])).map(list),
    st.tuples(st.just("UNITARY"), WIRE_LISTS,
              st.lists(st.lists(st.integers(-1, 1) | st.floats(), min_size=2, max_size=2))).map(list),
    JSON,
)


@st.composite
def _near_dumps(draw):
    """A dump-form object over wires q, e, z, with up to two parts replaced by arbitrary JSON."""
    labels = draw(st.lists(st.sampled_from(["q", "e", "z"]), unique=True, max_size=3))
    obj = {
        "label": draw(st.text(max_size=3)),
        "wires": [[w, draw(st.sampled_from([2, 2, 2, 3, 1, 0]))] for w in labels],
        "system": draw(WIRE_LISTS),
        "ops": draw(st.lists(OP_ENTRIES, max_size=4)),
    }
    for key in draw(st.lists(st.sampled_from([*obj, "extra"]), max_size=2)):
        obj[key] = draw(JSON)
    return obj


JSON_INPUTS = JSON | _near_dumps()


class TestSerialization:
    @pytest.mark.parametrize("maker", [
        lambda: build_markovian_step("amplitude-damping", math.pi / 10),
        lambda: build_markovian_step("dephasing", math.pi / 5),
        lambda: build_nonmarkovian_step(
            "amplitude-damping", MemorySpec(3, (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6))
        ),
        lambda: build_sequential_step(pauli_channel(0.01, 0.02, 0.03)),
    ])
    def test_round_trip(self, maker):
        step = maker()
        text = dump_circuit(step)
        back = parse_circuit(text)
        assert same_circuit(step, back)

    def test_dump_format_lines(self):
        step = build_markovian_step("dephasing", math.pi / 5)
        lines = dump_circuit(step).splitlines()
        assert lines[0] == (
            '{"label": "markovian-dephasing", "wires": [["q", 2], ["e", 2]], '
            '"system": ["q"], "ops": ['
        )
        assert lines[1].startswith('["GATE", "Ry", ["e"], ')
        assert lines[2] == '["GATE", "CZ", ["e", "q"]],'
        assert lines[3] == '["RESET", "e"]'
        assert lines[4] == "]}"

    def test_unnamed_gate_round_trips_as_unitary(self):
        step = build_dilation_step(pauli_channel(0.1, 0.1, 0.1))
        text = dump_circuit(step)
        assert text.splitlines()[1].startswith(
            '["UNITARY", ["q", "e1", "e2"], [[0.8366600265340756, 0.0], '
        )
        assert same_circuit(parse_circuit(text), step)

    @pytest.mark.parametrize("entry", [
        ["UNITARY"],
        ["UNITARY", ["q"]],
        ["UNITARY", ["q"], [[1, 0], [0]]],
        ["UNITARY", ["q"], [[1, 0], [0, 0], [0, 0], [1, "x"]]],
    ], ids=["UNITARY", "UNITARY q", "UNITARY q 1 0 0", "UNITARY q 1 0 0 x"])
    def test_malformed_unitary_carries_line(self, entry):
        with pytest.raises(CircuitFormatError, match="^op 1: "):
            parse_circuit(_dump_text([["q", 2]], ["q"], [["GATE", "X", ["q"]], entry]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(step=circuits())
    def test_random_circuits_round_trip(self, step):
        assert same_circuit(parse_circuit(dump_circuit(step)), step)

    def test_parse_error_carries_line(self):
        ops = [["GATE", "X", ["q"]], ["GATE", "WAT", ["q"]]]
        with pytest.raises(CircuitFormatError, match="^op 1: unknown gate name 'WAT'$"):
            parse_circuit(_dump_text([["q", 2]], ["q"], ops))

    def test_round_trip_numeric_wire_labels(self):
        layout = (Wire("0"), Wire("1"), Wire("2"))
        ops = [
            GateOp.gate("CNOT", ("0", "1")),
            GateOp.gate("Ry", ("2",), 0.5),
            GateOp.gate("CRy", ("0", "2"), 1.25),
            GateOp.swap("1", "2"),
            GateOp.reset("1"),
        ]
        step = StepCircuit("numeric", layout, ("0",), ops)
        text = dump_circuit(step)
        assert '\n["GATE", "CNOT", ["0", "1"]],\n' in text
        assert same_circuit(parse_circuit(text), step)

    def test_gate_arity_checked_with_line(self):
        # a dim-1 wire makes the wires' dim match CNOT's matrix, so the arity check decides
        wires = [["0", 2], ["1", 2], ["2", 1]]
        with pytest.raises(CircuitFormatError, match="^gate CNOT given 3 wires$"):
            parse_circuit(_dump_text(wires, ["0"], [["GATE", "CNOT", ["0", "1", "2"]]]))
        with pytest.raises(CircuitFormatError, match="^op 0: gate Ry requires theta$"):
            parse_circuit(_dump_text([["q", 2]], ["q"], [["GATE", "Ry", ["q"]]]))

    def test_unknown_wire_carries_line(self):
        with pytest.raises(CircuitFormatError, match=r"GateOp\(X on \('z',\)\) .*unknown wire 'z'"):
            parse_circuit(_dump_text([["q", 2]], ["q"], [["GATE", "X", ["z"]]]))

    def test_reset_of_system_wire_carries_line(self):
        with pytest.raises(CircuitFormatError, match="^trace-reset on system wire 'q'$"):
            parse_circuit(_dump_text([["q", 2], ["e", 2]], ["q"], [["RESET", "q"]]))

    def test_duplicate_wire_labels_carry_the_wires_line(self):
        with pytest.raises(CircuitFormatError, match=r"^duplicate wire labels in layout \['q', 'q'\]$"):
            parse_circuit(_dump_text([["q", 2], ["q", 2]], ["q"], []))

    def test_unknown_system_wire_carries_the_system_line(self):
        with pytest.raises(CircuitFormatError, match="^system wire 'z' not in layout$"):
            parse_circuit(_dump_text([["q", 2]], ["z"], []))
        # key order does not matter: ops and system before wires
        text = '{"ops": [["GATE", "X", ["q"]]], "system": ["z"], "wires": [["q", 2]], "label": ""}'
        with pytest.raises(CircuitFormatError, match="^system wire 'z' not in layout$"):
            parse_circuit(text)

    def test_op_checked_against_a_later_header(self):
        text = ('{"ops": [["GATE", "H", ["q"]], ["SWAP", "q", "z"]], '
                '"wires": [["q", 2], ["e", 2]], "system": ["q"], "label": ""}')
        with pytest.raises(CircuitFormatError, match=r"SWAP on \('q', 'z'\)\) .*unknown wire 'z'"):
            parse_circuit(text)

    @pytest.mark.parametrize("entry", [["GATE", "CNOT", ["q", "q"]], ["SWAP", "e", "e"]],
                             ids=["GATE CNOT q q", "SWAP e e"])
    def test_op_naming_a_wire_twice_carries_line(self, entry):
        with pytest.raises(CircuitFormatError, match="names a wire twice"):
            parse_circuit(_dump_text([["q", 2], ["e", 2]], ["q"], [entry]))

    def test_wire_dim_below_one_carries_the_wires_line(self):
        with pytest.raises(CircuitFormatError, match="^wire 'q' has dim 0 < 1$"):
            parse_circuit(_dump_text([["q", 0], ["e", 2]], ["q"], [], label="x"))

    def test_missing_header_rejected(self):
        with pytest.raises(CircuitFormatError, match='"wires"'):
            parse_circuit('{"label": "", "ops": [["GATE", "X", ["q"]]]}')

    def test_labels_that_broke_the_line_form_round_trip(self):
        layout = (Wire("q b"), Wire("e"), Wire("c:3", 3), Wire("c#", 3))
        ops = [GateOp.gate("CNOT", ("e", "q b")), GateOp.swap("c:3", "c#"), GateOp.reset("e")]
        step = StepCircuit("a\nRESET e", layout, ("q b",), ops)
        back = parse_circuit(dump_circuit(step))
        assert same_circuit(back, step) and len(back.ops) == 3

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(step=_relabelled(circuits()))
    def test_any_text_labels_round_trip(self, step):
        assert same_circuit(parse_circuit(dump_circuit(step)), step)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.text(max_size=20) | JSON_INPUTS.map(json.dumps))
    def test_any_input_parses_or_raises_circuit_format_error(self, text):
        try:
            step = parse_circuit(text)
        except CircuitFormatError:
            return
        assert same_circuit(parse_circuit(dump_circuit(step)), step)

    def test_bad_json_names_line_and_column(self):
        with pytest.raises(CircuitFormatError, match="line 2 column 12"):
            parse_circuit('{"label": "x",\n "wires": [}')

    @pytest.mark.parametrize("wire", [["q", True], ["q", 2.0], ["q"], [2, "q"], "q", ["q", 2, 2]])
    def test_wire_must_be_a_label_and_an_integer_dim(self, wire):
        with pytest.raises(CircuitFormatError, match=r'^expected \{"label": str, "wires"'):
            parse_circuit(_dump_text([wire], ["q"], []))

    @pytest.mark.parametrize("entry", [
        ["GATE", "X", "q"],
        ["UNITARY", "q", [[1, 0], [0, 0], [0, 0], [1, 0]]],
        ["GATE", "Ry", ["q"], "0.5"],
        ["RESET", ["e"]],
        ["SWAP", "q"],
        ["MEASURE", "q"],
        "RESET e",
        ["GATE", "Ry", ["q"], True],
        ["GATE", "Ry", ["q"], False],
    ])
    def test_op_entry_of_the_wrong_shape_rejected(self, entry):
        with pytest.raises(CircuitFormatError, match="^op 0: expected a GATE, RESET, SWAP or UNITARY"):
            parse_circuit(_dump_text([["q", 2], ["e", 2]], ["q"], [entry]))

    @pytest.mark.parametrize("entry", [
        ["GATE", "Ry", ["q"], 10**400],
        ["UNITARY", ["q"], [[10**400, 0], [0, 0], [0, 0], [1, 0]]],
    ])
    def test_number_too_large_for_a_float_rejected(self, entry):
        with pytest.raises(CircuitFormatError, match="^op 0: int too large to convert to float$"):
            parse_circuit(_dump_text([["q", 2]], ["q"], [entry]))

    @pytest.mark.parametrize("entries", [[], [[1, 0], [0, 0], [0, 0]]], ids=["empty", "3 entries"])
    def test_unitary_that_is_empty_or_not_square_rejected(self, entries):
        message = f"^op 0: unitary is empty or not square: {len(entries)} entries$"
        with pytest.raises(CircuitFormatError, match=message):
            parse_circuit(_dump_text([["q", 2]], ["q"], [["UNITARY", ["q"], entries]]))

    @pytest.mark.parametrize("pair", [[True, 0], [1, False], ["1", 0], [None, 0], [1, 0, 0]])
    def test_unitary_entry_that_is_not_a_number_pair_rejected(self, pair):
        entry = ["UNITARY", ["q"], [pair, [0, 0], [0, 0], [1, 0]]]
        with pytest.raises(CircuitFormatError, match="^op 0: unitary entries must be"):
            parse_circuit(_dump_text([["q", 2]], ["q"], [entry]))

    def test_unitary_of_huge_entries_rejected_without_a_warning(self):
        entry = ["UNITARY", ["q"], [[1e308, 0]] * 4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CircuitFormatError, match="^op 0: gate <anonymous> is not unitary$"):
                parse_circuit(_dump_text([["q", 2]], ["q"], [entry]))

    @pytest.mark.parametrize("text", [
        '{"label": 5, "wires": [["q", 2]], "system": ["q"], "ops": []}',
        '{"label": "", "wires": [["q", 2]], "system": "q", "ops": []}',
        '{"label": "", "wires": [["q", 2]], "system": ["q"], "ops": [], "extra": 1}',
        "[]",
    ])
    def test_object_of_the_wrong_shape_rejected(self, text):
        with pytest.raises(CircuitFormatError, match=r"^expected \{"):
            parse_circuit(text)


def _oracle_base(label="base", layout=None, system=("q",), ops=None):
    layout = layout or (Wire("q"), Wire("e"), Wire("c"))
    if ops is None:
        ops = [
            GateOp.gate("Ry", ("e",), 0.134),
            GateOp("unitary-apply", ("q", "e"), matrix=standard_gate("CNOT")),
            GateOp.swap("e", "c"),
            GateOp.reset("e"),
        ]
    return StepCircuit(label, layout, system, ops)


def _with_op(i, op):
    ops = list(_oracle_base().ops)
    ops[i] = op
    return _oracle_base(ops=ops)


def _x_on_e(kind):
    return _oracle_base(ops=[GateOp(kind, ("e",), matrix=standard_gate("X"))])


class TestSameCircuit:
    """The round-trip oracle tells apart two circuits that differ in one field.

    Only a unitary-apply op has a matrix, so whether one is present follows
    from the op kind."""

    def test_equal_circuits_match(self):
        assert same_circuit(_oracle_base(), _oracle_base())

    @pytest.mark.parametrize("pair", [
        pytest.param(lambda: (_oracle_base(), _oracle_base(label="other")), id="label"),
        pytest.param(lambda: (_oracle_base(), _oracle_base(
            layout=(Wire("q"), Wire("e"), Wire("c"), Wire("d")))), id="layout"),
        pytest.param(lambda: (_oracle_base(), _oracle_base(system=("q", "c"))), id="system"),
        pytest.param(lambda: (_oracle_base(), _oracle_base(ops=_oracle_base().ops[:-1])),
                     id="op-count"),
        pytest.param(lambda: (_x_on_e("unitary-apply"), _x_on_e("trace-reset")), id="op-kind"),
        pytest.param(lambda: (_oracle_base(), _with_op(2, GateOp.swap("c", "e"))), id="op-wires"),
        pytest.param(lambda: (_oracle_base(), _with_op(1, GateOp.gate("CNOT", ("q", "e")))),
                     id="op-name"),
        # one ulp apart, 0.134 and its successor give Ry the same matrix
        pytest.param(lambda: (_oracle_base(), _with_op(
            0, GateOp.gate("Ry", ("e",), math.nextafter(0.134, 1.0)))), id="op-theta"),
        pytest.param(lambda: (_oracle_base(), _with_op(
            1, GateOp("unitary-apply", ("q", "e"), matrix=standard_gate("CZ")))),
            id="matrix-values"),
    ])
    def test_one_differing_field_is_told_apart(self, pair):
        a, b = pair()
        assert not same_circuit(a, b) and not same_circuit(b, a)

    def test_theta_case_differs_in_theta_alone(self):
        a, b = (GateOp.gate("Ry", ("e",), t) for t in (0.134, math.nextafter(0.134, 1.0)))
        assert a.theta != b.theta and np.array_equal(a.matrix, b.matrix)

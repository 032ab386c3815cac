import math

import numpy as np
import pytest

from oqsim.channels import (
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

    def test_error_scales_quadratically(self, rng):
        states = [random_density(rng) for _ in range(20)]
        errs = []
        grid = (0.04, 0.02, 0.01, 0.005)
        for eps in grid:
            ch = pauli_channel(eps, eps, eps)
            step = build_sequential_step(ch)
            ds = []
            for rho in states:
                red = reduced_system(apply_step(step, full_state(rho, step)), step)
                want = apply_channel(ch, qstate(rho))
                ds.append(0.5 * np.abs(np.linalg.eigvalsh(red.matrix - want.matrix)).sum())
            errs.append(np.mean(ds))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
        assert abs(slope - 2.0) <= 0.2

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
        bad = KrausChannel(2, [0.9 * PAULI_X])
        with pytest.raises(BuilderError, match="completeness"):
            build_sequential_step(bad)

    def test_non_qubit_rejected(self, rng):
        u = np.eye(3, dtype=complex)
        with pytest.raises(BuilderError):
            build_sequential_step(KrausChannel(3, [u]))

    def test_memory_variant_shape(self):
        ch = pauli_channel(0.02, 0.02, 0.02)
        step = build_sequential_step(ch, MemorySpec(3, (0.0, 0.3, 0.5)))
        assert step.wire_labels == ("c", "q", "e1", "e2", "e3")
        kinds = [op.kind for op in step.ops]
        assert kinds.count("swap") == 2


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
        assert lines[0] == "LABEL markovian-dephasing"
        assert lines[1] == "WIRES q:2 e:2"
        assert lines[2] == "SYSTEM q"
        assert lines[3].startswith("GATE Ry e ")
        assert lines[4] == "GATE CZ e q"
        assert lines[5] == "RESET e"

    def test_unnamed_gate_not_serializable(self):
        step = build_dilation_step(pauli_channel(0.1, 0.1, 0.1))
        with pytest.raises(CircuitFormatError):
            dump_circuit(step)

    def test_parse_error_carries_line(self):
        with pytest.raises(CircuitFormatError, match="line 2"):
            parse_circuit("WIRES q:2\nGATE WAT q\nSYSTEM q")

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
        assert "GATE CNOT 0 1\n" in text
        assert same_circuit(parse_circuit(text), step)

    def test_gate_arity_checked_with_line(self):
        with pytest.raises(CircuitFormatError, match="line 3: gate CNOT given 3 wires"):
            parse_circuit("WIRES 0:2 1:2\nSYSTEM 0\nGATE CNOT 0 1 1\n")
        with pytest.raises(CircuitFormatError, match="line 1"):
            parse_circuit("GATE Ry\nWIRES q:2\nSYSTEM q")

    def test_unknown_wire_carries_line(self):
        with pytest.raises(CircuitFormatError, match="line 3: .*unknown wire 'z'"):
            parse_circuit("WIRES q:2\nSYSTEM q\nGATE X z\n")

    def test_reset_of_system_wire_carries_line(self):
        with pytest.raises(CircuitFormatError, match="line 3: trace-reset on system wire"):
            parse_circuit("WIRES q:2 e:2\nSYSTEM q\nRESET q\n")

    def test_duplicate_wire_labels_carry_the_wires_line(self):
        with pytest.raises(CircuitFormatError, match=r"line 1: duplicate wire labels"):
            parse_circuit("WIRES q:2 q:2\nSYSTEM q\n")

    def test_unknown_system_wire_carries_the_system_line(self):
        with pytest.raises(CircuitFormatError, match="line 2: system wire 'z' not in layout"):
            parse_circuit("WIRES q:2\nSYSTEM z\n")
        with pytest.raises(CircuitFormatError, match="line 3: system wire 'z'"):
            parse_circuit("# system before wires\nGATE X q\nSYSTEM z\nWIRES q:2\n")

    def test_op_checked_against_a_later_header(self):
        with pytest.raises(CircuitFormatError, match="line 2: .*unknown wire 'z'"):
            parse_circuit("GATE H q\nSWAP q z\nWIRES q:2 e:2\nSYSTEM q\n")

    def test_missing_header_rejected(self):
        with pytest.raises(CircuitFormatError, match="WIRES"):
            parse_circuit("GATE X q")

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.analysis import (
    MONOTONE_ATOL,
    MonotonicityVerdict,
    blp_witness,
    monotonicity_check,
    resource_count,
    series_monotonicity,
)
from oqsim.channels import KrausChannel, PAULI_X, PAULI_Y, PAULI_Z
from oqsim.circuit import (
    MemorySpec,
    StepCircuit,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
)
from oqsim.engine import StepRecord, Trajectory, projector_observable, run
from oqsim.qmath import DimensionMismatchError, Wire

from conftest import KET0, KET1, KETP, proj, qstate

P1 = projector_observable("p1")


def fake_traj(values, name="p1"):
    records = tuple(
        StepRecord(step=i, values={name: v}, trace=1.0, purity=1.0)
        for i, v in enumerate(values)
    )
    return Trajectory(records=records)


class TestMonotonicityCheck:
    def test_decreasing_is_monotone(self):
        verdict = monotonicity_check(fake_traj([1.0, 0.8, 0.5, 0.2]), "p1")
        assert verdict.monotone
        assert verdict.first_violation is None
        assert verdict.max_revival <= 0

    def test_detects_first_violation(self):
        verdict = monotonicity_check(fake_traj([1.0, 0.8, 0.85, 0.2, 0.4]), "p1")
        assert not verdict.monotone
        assert verdict.first_violation == 2
        assert abs(verdict.max_revival - 0.2) < 1e-12

    def test_tolerance_hides_tiny_bumps(self):
        verdict = monotonicity_check(fake_traj([1.0, 0.5, 0.5 + 1e-12]), "p1")
        assert verdict.monotone

    @pytest.mark.parametrize("kind", ["amplitude-damping", "dephasing"])
    @pytest.mark.parametrize("theta", [math.pi / 10, math.pi / 8, math.pi / 5])
    def test_markovian_builders_monotone(self, kind, theta):
        step = build_markovian_step(kind, theta)
        rho0 = qstate(proj(KET1) if kind == "amplitude-damping" else proj(KETP))
        obs = "p1" if kind == "amplitude-damping" else "p+"
        traj = run(step, rho0, 50, [projector_observable(obs)])
        assert monotonicity_check(traj, obs).monotone

    def test_memory_circuit_reviving(self):
        step = build_nonmarkovian_step(
            "amplitude-damping",
            MemorySpec(3, (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6)),
        )
        traj = run(step, qstate(proj(KET1)), 50, [P1])
        verdict = monotonicity_check(traj, "p1")
        assert not verdict.monotone
        assert verdict.max_revival > 0.01

    def test_unknown_observable(self):
        with pytest.raises(KeyError):
            monotonicity_check(fake_traj([1.0, 0.9]), "p9")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-2, 2) | st.sampled_from([0.5, 0.5 + 1e-9, 0.5 + 2e-9]), max_size=12))
    def test_the_series_verdict_is_the_step_loop(self, series):
        first, max_rev = None, -math.inf
        for i in range(1, len(series)):
            diff = series[i] - series[i - 1]
            max_rev = max(max_rev, diff)
            if diff > MONOTONE_ATOL and first is None:
                first = i
        assert series_monotonicity(series) == MonotonicityVerdict(first is None, first, max_rev)


class TestBlpWitness:
    def test_identity_step(self):
        step = StepCircuit("noop", (Wire("q"),), ("q",), [])
        w = blp_witness(step, qstate(proj(KET0)), qstate(proj(KET1)), 10)
        assert w <= 1e-9

    def test_markovian_contraction(self):
        step = build_markovian_step("amplitude-damping", math.pi / 10)
        w = blp_witness(step, qstate(proj(KET0)), qstate(proj(KET1)), 50)
        assert 0.0 <= w <= 1e-9

    def test_memory_backflow_positive(self):
        step = build_nonmarkovian_step(
            "amplitude-damping", MemorySpec(3, (math.pi / 8, 5 * math.pi / 6, math.pi))
        )
        w = blp_witness(step, qstate(proj(KET0)), qstate(proj(KET1)), 50)
        assert w > 1e-3

    def test_nonnegative_on_assorted_pairs(self, rng):
        from conftest import random_density

        step = build_markovian_step("dephasing", 0.9)
        for _ in range(5):
            w = blp_witness(
                step, qstate(random_density(rng)), qstate(random_density(rng)), 20
            )
            assert w >= 0.0

    def test_register_beyond_numpy_shapes_raises_memory_error(self):
        step = build_nonmarkovian_step("dephasing", MemorySpec(40, (0.1,) * 40))
        with pytest.raises(MemoryError):
            blp_witness(step, qstate(proj(KET0)), qstate(proj(KET1)), 5)

    def test_layout_mismatch(self):
        step = build_markovian_step("dephasing", 0.5)
        a = qstate(proj(KET0))
        from oqsim.qmath import DensityMatrix

        b = DensityMatrix(proj(KET1), (Wire("s"),))
        with pytest.raises(DimensionMismatchError):
            blp_witness(step, a, b, 5)


class TestResourceCount:
    def test_markovian_step_counts(self):
        step = build_markovian_step("amplitude-damping", math.pi / 10)
        report = resource_count(step, 50)
        assert report.qubit_count == 2
        assert report.gates_per_step == 3
        assert report.unitary_gates_per_step == 2
        assert report.total_gates == 150

    def test_nonmarkovian_step_counts(self):
        step = build_nonmarkovian_step(
            "amplitude-damping", MemorySpec(3, (0.1, 0.2, 0.3))
        )
        report = resource_count(step, 10)
        assert report.qubit_count == 4
        assert report.gates_per_step == 7

    def test_sequential_constant_vs_dilation_growth(self):
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        seq_qubits, dil_qubits, seq_gates = [], [], []
        for l in (2, 4, 8, 16):
            ops = [math.sqrt(1.0 / l) * paulis[i % 3] for i in range(l)]
            ch = KrausChannel(2, ops, label=f"l{l}")
            seq = resource_count(build_sequential_step(ch), 1)
            dil = resource_count(build_dilation_step(ch), 1)
            seq_qubits.append(seq.qubit_count)
            dil_qubits.append(dil.qubit_count)
            seq_gates.append(seq.gates_per_step)
        assert seq_qubits == [3, 3, 3, 3]
        assert dil_qubits == [2, 3, 4, 5]
        assert all(b > a for a, b in zip(dil_qubits, dil_qubits[1:]))
        # per-step gate count grows linearly with the operator count
        ratios = [g / l for g, l in zip(seq_gates, (2, 4, 8, 16))]
        assert max(ratios) <= 5 and min(ratios) >= 3

    def test_wire_dim_must_be_a_power_of_two(self):
        step = StepCircuit("qutrit", (Wire("q", 3),), ("q",), [])
        with pytest.raises(ValueError, match=r"^wire 'q' dim 3 is not a power of two$"):
            resource_count(step, 1)

    def test_negative_step_count_is_refused(self):
        step = build_markovian_step("dephasing", 0.1)
        assert resource_count(step, 0).total_gates == 0
        with pytest.raises(ValueError, match=r"^step count -1 must be >= 0$"):
            resource_count(step, -1)

    def test_report_text_block(self):
        step = build_markovian_step("dephasing", 0.1)
        text = resource_count(step, 5).as_text()
        assert "qubit_count = 2" in text
        assert "gates_per_step = 3" in text
        assert "total_gates = 15" in text

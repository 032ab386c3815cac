import math

import numpy as np
import pytest

import oqsim.engine as eng
from oqsim.analysis import blp_witness
from oqsim.channels import amplitude_damping, apply_channel, dephasing
from oqsim.circuit import StepCircuit, build_markovian_step
from oqsim.engine import (
    NumericalViolationError,
    Observable,
    projector_observable,
    purity,
    run,
)
from oqsim.qmath import DensityMatrix, DimensionMismatchError, InvalidStateError, Wire

from conftest import KET0, KET1, KETP, proj, qstate, random_density

P1 = projector_observable("p1")
PPLUS = projector_observable("p+")


class TestObservable:
    def test_builtin_projectors(self):
        for name in ("p0", "p1", "p+", "p-"):
            obs = projector_observable(name)
            p = obs.projector
            assert np.allclose(p @ p, p, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            projector_observable("p2")

    def test_each_builtin_is_built_once(self):
        for name in ("p0", "p1", "p+", "p-"):
            assert projector_observable(name) is projector_observable(name)
        assert not projector_observable("p1").projector.flags.writeable

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            Observable("half", np.eye(2) / 2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable("skew", np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("diagonal", [(1.0, np.inf), (1e200, 0.0)], ids=["inf", "huge"])
    def test_entry_above_one_rejected_before_any_product(self, diagonal):
        # pyproject makes a RuntimeWarning an error, so none may come first
        with pytest.raises(ValueError, match="not finite or above 1"):
            Observable("x", np.diag(diagonal))


class TestRun:
    def test_identity_step_repeats_record(self, rng):
        step = StepCircuit("noop", (Wire("q"),), ("q",), [])
        rho = qstate(random_density(rng))
        traj = run(step, rho, 1, [P1])
        assert len(traj.records) == 2
        assert traj.records[1].values == traj.records[0].values

    def test_damping_closed_form_every_step(self):
        step = build_markovian_step("amplitude-damping", math.pi / 10)
        traj = run(step, qstate(proj(KET1)), 50, [P1])
        gamma2 = math.sin(math.pi / 20) ** 2
        series = traj.series("p1")
        assert len(series) == 51
        for n, p in enumerate(series):
            assert abs(p - (1 - gamma2) ** n) <= 1e-9

    def test_dephasing_closed_form_and_limit(self):
        step = build_markovian_step("dephasing", math.pi / 5)
        traj = run(step, qstate(proj(KETP)), 100, [PPLUS])
        factor = 1 - 2 * math.sin(math.pi / 10) ** 2
        for n, p in enumerate(traj.series("p+")):
            assert abs(p - (1 + factor**n) / 2) <= 1e-9
        assert abs(traj.series("p+")[-1] - 0.5) <= 0.05

    def test_matches_channel_iteration(self, rng):
        cases = [
            ("amplitude-damping", math.pi / 10, amplitude_damping),
            ("dephasing", math.pi / 5, dephasing),
        ]
        for kind, theta, make in cases:
            step = build_markovian_step(kind, theta)
            rho0 = qstate(random_density(rng))
            traj = run(step, rho0, 20, [P1])
            ch = make(math.sin(theta / 2))
            rho = rho0
            for n in range(1, 21):
                rho = apply_channel(ch, rho)
                assert abs(traj.series("p1")[n] - rho.matrix[1, 1].real) < 1e-10

    def test_damping_population_never_increases(self):
        step = build_markovian_step("amplitude-damping", math.pi / 8)
        series = run(step, qstate(proj(KET1)), 50, [P1]).series("p1")
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_traces_stay_unit(self, rng):
        step = build_markovian_step("dephasing", 1.3)
        traj = run(step, qstate(random_density(rng)), 30, [PPLUS])
        for rec in traj.records:
            assert abs(rec.trace - 1.0) <= 1e-9

    def test_observable_dim_mismatch(self):
        step = build_markovian_step("dephasing", 0.3)
        bad = Observable("big", np.eye(4))
        with pytest.raises(DimensionMismatchError):
            run(step, qstate(proj(KET0)), 3, [bad])

    def test_wrong_system_labels(self):
        step = build_markovian_step("dephasing", 0.3)
        rho = DensityMatrix(proj(KET0), (Wire("s"),))
        with pytest.raises(DimensionMismatchError):
            run(step, rho, 3, [PPLUS])

    def test_repeated_observable_name_rejected(self):
        step = build_markovian_step("dephasing", 0.3)
        with pytest.raises(ValueError, match="repeat"):
            run(step, qstate(proj(KET0)), 3, [PPLUS, projector_observable("p0"), PPLUS])

    def test_step_count_validation(self):
        step = build_markovian_step("dephasing", 0.3)
        with pytest.raises(ValueError):
            run(step, qstate(proj(KET0)), 0, [PPLUS])

    def test_violation_carries_step_index(self):
        # a trace-breaking "gate" cannot be built, so break the state instead
        step = StepCircuit("noop", (Wire("q"),), ("q",), [])
        rho = qstate(proj(KET0))
        import oqsim.engine as eng

        original = eng.run_compiled

        def corrupting(compiled, states, out=None):
            return np.multiply(states, 1.01, out=out)

        eng.run_compiled = corrupting
        try:
            with pytest.raises(NumericalViolationError) as err:
                run(step, rho, 5, [P1])
        finally:
            eng.run_compiled = original
        assert err.value.step == 1
        assert err.value.invariant == "trace"


NOOP = StepCircuit("noop", (Wire("q"),), ("q",), [])

# Each matrix breaks exactly one invariant; a NaN state fails as "hermitian".
BROKEN = {
    "trace": (1.01 * proj(KETP), "trace"),
    "hermitian": (proj(KETP) + np.array([[0.0, 1e-6], [-1e-6, 0.0]]), "hermitian"),
    "psd": (np.diag([1.0 + 1e-6, -1e-6]), "psd"),
    "nan": (np.full((2, 2), np.nan), "hermitian"),
}


class TestViolationContract:
    """The first bad state is reported by step, invariant and the message
    that :class:`DensityMatrix` gives for the same matrix."""

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_first_bad_step_is_named(self, monkeypatch, case):
        bad, invariant = BROKEN[case]
        with pytest.raises(InvalidStateError) as direct:
            DensityMatrix(bad, (Wire("q"),))
        reduce = eng.partial_trace_matrix

        def breaking(stack, *args):  # |+> fills the register: one chunk holds steps 0..6
            reduced = reduce(stack, *args).astype(complex)  # a real run reduces to real states
            reduced[3:] = bad  # the reduced states turn bad at step 3
            return reduced

        monkeypatch.setattr(eng, "partial_trace_matrix", breaking)
        with pytest.raises(NumericalViolationError) as err:
            run(NOOP, qstate(proj(KETP)), 6, [P1])
        assert err.value.step == 3
        assert err.value.invariant == invariant == direct.value.invariant
        assert str(err.value.__cause__) == str(direct.value)
        assert str(err.value) == f"step 3: {invariant} violated ({direct.value})"

    def test_blp_witness_raises_for_the_first_bad_state(self, monkeypatch):
        def scaled(program, states, out=None):  # a kernel that writes 1.01 rho, into out if given
            return np.multiply(states, 1.01, out=out)

        monkeypatch.setattr(eng, "run_compiled", scaled)
        rho_a, rho_b = qstate(proj(KET0)), qstate(proj(KET1))
        with pytest.raises(InvalidStateError) as direct:
            DensityMatrix(rho_a.matrix * 1.01, rho_a.layout)
        with pytest.raises(InvalidStateError) as err:
            blp_witness(NOOP, rho_a, rho_b, 5)
        assert err.value.invariant == "trace"
        assert str(err.value) == str(direct.value)


class TestPurity:
    def test_pure_state(self):
        assert abs(purity(qstate(proj(KETP))) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(qstate(np.eye(2) / 2)) - 0.5) < 1e-12

    def test_after_one_damping_step(self):
        step = build_markovian_step("amplitude-damping", math.pi / 10)
        traj = run(step, qstate(proj(KET1)), 1, [P1])
        gamma = math.sin(math.pi / 20)
        want = gamma**4 + (1 - gamma**2) ** 2
        assert abs(traj.records[1].purity - want) < 1e-12
        assert abs(traj.records[1].purity - 0.9522542485937369) < 1e-12

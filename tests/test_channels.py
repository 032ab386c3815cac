import math

import numpy as np
import pytest

from oqsim.channels import (
    DecompositionError,
    InvalidChannelError,
    KrausChannel,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ParameterError,
    SingularMapError,
    Superoperator,
    amplitude_damping,
    apply_channel,
    choi_matrix,
    compose,
    cp_witness,
    dephasing,
    environment_dim,
    intermediate_map,
    load_channel,
    pauli_channel,
    save_channel,
    sequential_factors,
    stinespring_dilate,
    to_superoperator,
    validate,
)
from oqsim.qmath import DensityMatrix, DimensionMismatchError, Wire, partial_trace

from conftest import (
    KET0,
    KET1,
    KETP,
    kraus_apply,
    proj,
    qstate,
    random_channel_ops,
    random_density,
    vec_colstack,
)

COS2_PI20 = 0.9755282581475768      # 1 - sin(pi/20)^2
PPLUS_ONE_STEP = 0.9045084971874737  # (1 + (1 - 2 sin(pi/10)^2)) / 2


class TestValidate:
    def test_identity_passes(self):
        report = validate(KrausChannel(2, [PAULI_I], label="id"))
        assert report.passed and report.deviation == 0.0

    def test_amplitude_damping_passes(self):
        report = validate(amplitude_damping(0.3))
        assert report.passed
        # diag(1, 0.91) + diag(0, 0.09) = I
        assert report.deviation < 1e-15

    def test_incomplete_set_fails(self):
        report = validate(KrausChannel(2, [0.5 * PAULI_I]))
        assert not report.passed
        assert abs(report.deviation - np.linalg.norm(0.75 * np.eye(2))) < 1e-12


class TestBuilders:
    def test_damping_zero_is_identity(self, rng):
        ch = amplitude_damping(0.0)
        assert len(ch) == 1
        rho = qstate(random_density(rng))
        assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-15)

    def test_damping_full(self):
        ch = amplitude_damping(1.0)
        out = apply_channel(ch, qstate(proj(KET1)))
        assert np.allclose(out.matrix, proj(KET0), atol=1e-12)

    def test_damping_population(self):
        gamma = math.sin(math.pi / 20)
        ch = amplitude_damping(math.sin(math.pi / 20))
        out = apply_channel(ch, qstate(proj(KET1)))
        # oracle: direct operator sum
        want = kraus_apply(ch.operators, proj(KET1))
        assert np.allclose(out.matrix, want, atol=1e-15)
        assert abs(out.matrix[1, 1].real - (1 - gamma**2)) < 1e-15
        assert abs(out.matrix[1, 1].real - COS2_PI20) < 1e-12

    def test_damping_range_check(self):
        with pytest.raises(ParameterError):
            amplitude_damping(-0.1)
        with pytest.raises(ParameterError):
            amplitude_damping(1.2)

    def test_dephasing_zero_is_identity(self):
        assert len(dephasing(0.0)) == 1

    def test_dephasing_plus_population(self):
        gamma = math.sin(math.pi / 10)
        out = apply_channel(dephasing(gamma), qstate(proj(KETP)))
        pop = np.real(np.trace(proj(KETP) @ out.matrix))
        assert abs(pop - (1 + (1 - 2 * gamma**2)) / 2) < 1e-15
        assert abs(pop - PPLUS_ONE_STEP) < 1e-12

    def test_dephasing_fixes_diagonal(self, rng):
        diag = np.diag([0.3, 0.7]).astype(complex)
        out = apply_channel(dephasing(rng.uniform(0.1, 0.9)), qstate(diag))
        assert np.allclose(out.matrix, diag, atol=1e-15)

    def test_pauli_identity(self):
        assert len(pauli_channel(0, 0, 0)) == 1

    def test_pauli_matches_dephasing_superoperator(self):
        gamma = 0.37
        a = to_superoperator(pauli_channel(0, 0, gamma**2))
        b = to_superoperator(dephasing(gamma))
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_pauli_depolarizes(self, rng):
        ch = pauli_channel(0.25, 0.25, 0.25)
        for _ in range(5):
            out = apply_channel(ch, qstate(random_density(rng)))
            assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_pauli_range_checks(self):
        with pytest.raises(ParameterError):
            pauli_channel(-0.1, 0, 0)
        with pytest.raises(ParameterError):
            pauli_channel(0.5, 0.4, 0.3)


class TestApplyChannel:
    def test_identity_bit_identical(self, rng):
        ch = KrausChannel(2, [PAULI_I])
        rho = qstate(random_density(rng))
        out = apply_channel(ch, rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-15

    def test_two_applications(self):
        gamma = 0.41
        ch = amplitude_damping(gamma)
        rho = apply_channel(ch, apply_channel(ch, qstate(proj(KET1))))
        assert abs(rho.matrix[1, 1].real - (1 - gamma**2) ** 2) < 1e-14

    def test_dimension_mismatch(self):
        ch = amplitude_damping(0.5)
        big = DensityMatrix(np.eye(4) / 4, (Wire("a"), Wire("b")))
        with pytest.raises(DimensionMismatchError):
            apply_channel(ch, big)

    def test_invalid_channel_rejected(self, rng):
        ch = KrausChannel(2, [0.5 * PAULI_I])
        with pytest.raises(InvalidChannelError):
            apply_channel(ch, qstate(random_density(rng)))

    def test_preserves_state_invariants(self, rng):
        chans = [
            amplitude_damping(0.3),
            dephasing(0.6),
            pauli_channel(0.1, 0.05, 0.2),
            KrausChannel(2, random_channel_ops(rng, 2, 3), label="random"),
        ]
        for ch in chans:
            for _ in range(25):
                out = apply_channel(ch, qstate(random_density(rng)))
                assert abs(np.trace(out.matrix) - 1) < 1e-10
                assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9


class TestStinespring:
    def test_identity_channel(self):
        u = stinespring_dilate(KrausChannel(2, [PAULI_I]))
        assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_environment_dim(self):
        assert [environment_dim(l) for l in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]

    def test_damping_population_via_dilation(self):
        ch = amplitude_damping(0.3)
        u = stinespring_dilate(ch)
        rho_se = np.kron(proj(KET1), proj(KET0))
        out = u @ rho_se @ u.conj().T
        full = DensityMatrix(out, (Wire("q"), Wire("e")))
        red = partial_trace(full, "e")
        assert abs(red.matrix[1, 1].real - 0.91) < 1e-12

    def test_isometry_block(self):
        for ch in (amplitude_damping(0.45), dephasing(0.3), pauli_channel(0.1, 0.2, 0.05)):
            u = stinespring_dilate(ch)
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-9)
            ed = environment_dim(len(ch.operators))
            block = u[:, [s * ed for s in range(ch.dim)]]
            assert np.allclose(block.conj().T @ block, np.eye(ch.dim), atol=1e-9)

    def test_dilation_reproduces_channel(self, rng):
        builtin = [
            amplitude_damping(0.37),
            dephasing(0.52),
            pauli_channel(0.12, 0.08, 0.2),
            KrausChannel(2, random_channel_ops(rng, 2, 3), label="rank3"),
        ]
        for ch in builtin:
            u = stinespring_dilate(ch)
            ed = environment_dim(len(ch.operators))
            env0 = np.zeros((ed, ed), dtype=complex)
            env0[0, 0] = 1.0
            for _ in range(20):
                rho = random_density(rng)
                big = u @ np.kron(rho, env0) @ u.conj().T
                full = DensityMatrix(big, (Wire("q"), Wire("e", ed)))
                red = partial_trace(full, "e")
                want = apply_channel(ch, qstate(rho))
                assert np.max(np.abs(red.matrix - want.matrix)) < 1e-9

    def test_deterministic(self):
        ch = pauli_channel(0.1, 0.2, 0.05)
        assert np.array_equal(stinespring_dilate(ch), stinespring_dilate(ch))


class TestSuperoperators:
    def test_identity_channel_superop(self):
        s = to_superoperator(KrausChannel(2, [PAULI_I]))
        assert np.array_equal(s.matrix, np.eye(4))

    def test_dephasing_superop_diagonal(self):
        gamma = 0.44
        s = to_superoperator(dephasing(gamma))
        want = np.diag([1.0, 1 - 2 * gamma**2, 1 - 2 * gamma**2, 1.0])
        assert np.allclose(s.matrix, want, atol=1e-12)

    def test_matches_apply_channel(self, rng):
        ch = KrausChannel(2, random_channel_ops(rng, 2, 4), label="rank4")
        s = to_superoperator(ch)
        for _ in range(50):
            rho = random_density(rng)
            out_vec = s.matrix @ vec_colstack(rho)
            want = apply_channel(ch, qstate(rho)).matrix
            assert np.max(np.abs(out_vec - vec_colstack(want))) < 1e-10

    def test_preserves_trace_of_vectorized_states(self, rng):
        s = to_superoperator(amplitude_damping(0.61))
        for _ in range(10):
            rho = random_density(rng)
            out = (s.matrix @ vec_colstack(rho)).reshape(2, 2).T
            assert abs(np.trace(out) - 1) < 1e-9

    def test_compose_identity(self):
        phi = to_superoperator(amplitude_damping(0.3))
        ident = Superoperator(np.eye(4), 2)
        assert np.allclose(compose(phi, ident).matrix, phi.matrix, atol=1e-15)

    def test_compose_matches_sequential_application(self, rng):
        ch = amplitude_damping(0.29)
        phi = to_superoperator(ch)
        phi2 = compose(phi, phi)
        for _ in range(20):
            rho = qstate(random_density(rng))
            twice = apply_channel(ch, apply_channel(ch, rho)).matrix
            via_super = (phi2.matrix @ vec_colstack(rho.matrix)).reshape(2, 2).T
            assert np.max(np.abs(twice - via_super)) < 1e-10

    def test_dephasing_superops_commute(self):
        a = to_superoperator(dephasing(0.3))
        b = to_superoperator(dephasing(0.7))
        assert np.max(np.abs(compose(a, b).matrix - compose(b, a).matrix)) < 1e-12

    def test_compose_dim_mismatch(self):
        a = to_superoperator(dephasing(0.3))
        b = Superoperator(np.eye(9), 3)
        with pytest.raises(DimensionMismatchError):
            compose(a, b)


class TestIntermediateMap:
    def test_self_gives_identity(self):
        phi = to_superoperator(amplitude_damping(0.4))
        mid = intermediate_map(phi, phi)
        assert np.allclose(mid.matrix, np.eye(4), atol=1e-12)

    def test_divisible_family(self):
        one = to_superoperator(dephasing(math.sin(math.pi / 10)))
        n = 12
        phi_n = Superoperator(np.linalg.matrix_power(one.matrix, n), 2)
        phi_m = Superoperator(np.linalg.matrix_power(one.matrix, n - 1), 2)
        mid = intermediate_map(phi_n, phi_m)
        assert np.max(np.abs(mid.matrix - one.matrix)) < 1e-9

    def test_singular_map_rejected(self):
        full = to_superoperator(dephasing(math.sqrt(0.5)))
        with pytest.raises(SingularMapError):
            intermediate_map(full, full)


class TestCpWitness:
    def test_builtin_channels_are_cp(self, rng):
        chans = [
            amplitude_damping(0.3),
            dephasing(0.8),
            pauli_channel(0.2, 0.1, 0.15),
            KrausChannel(2, random_channel_ops(rng, 2, 4), label="rank4"),
        ]
        for ch in chans:
            assert cp_witness(to_superoperator(ch)) >= -1e-9

    def test_identity_choi(self):
        s = Superoperator(np.eye(4), 2)
        choi = choi_matrix(s)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0
        assert np.allclose(choi, np.outer(bell, bell), atol=1e-12)
        eigs = np.linalg.eigvalsh(choi)
        assert abs(eigs.min()) <= 1e-9 and abs(eigs.max() - 2.0) < 1e-12

    def test_transpose_map_detected(self):
        # superoperator of rho -> rho^T under column stacking is the swap matrix
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        witness = cp_witness(Superoperator(swap, 2))
        assert witness < 0
        assert abs(witness - (-1.0)) < 1e-12


class TestSequentialFactors:
    def test_unitary_channel_single_factor(self, rng):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        factors = sequential_factors(KrausChannel(2, [h], label="h"))
        assert len(factors) == 1
        rho = qstate(random_density(rng))
        out = apply_channel(factors[0], rho)
        assert np.allclose(out.matrix, h @ rho.matrix @ h.conj().T, atol=1e-12)

    def test_pauli_factor_complements_exact(self):
        eps = 0.02
        factors = sequential_factors(pauli_channel(eps, eps, eps))
        # jump factors carry sqrt(1-eps) I as the complement
        for f in factors[1:]:
            assert np.allclose(
                f.operators[1], math.sqrt(1 - eps) * np.eye(2), atol=1e-12
            )
        for f in factors:
            report = validate(f)
            assert report.passed and report.deviation <= 1e-9

    def test_first_order_mode_tracks_expansion(self):
        eps = 0.03
        factors = sequential_factors(pauli_channel(eps, eps, eps), mode="first-order")
        gram = eps * np.eye(2)
        assert np.allclose(factors[1].operators[1], np.eye(2) - gram / 2, atol=1e-15)
        # trace preserving only to first order: deviation ~ eps^2/4 * ||I||
        report = validate(factors[1])
        assert not report.passed
        assert report.deviation == pytest.approx(eps**2 / 4 * math.sqrt(2), rel=1e-6)

    def test_composition_error_is_second_order(self, rng):
        states = [random_density(rng) for _ in range(20)]
        errs = []
        for eps in (0.04, 0.02, 0.01):
            ch = pauli_channel(eps, eps, eps)
            factors = sequential_factors(ch)
            ds = []
            for rho in states:
                acc = rho
                for f in factors:
                    acc = kraus_apply(f.operators, acc)
                direct = kraus_apply(ch.operators, rho)
                ds.append(
                    0.5 * np.abs(np.linalg.eigvalsh(acc - direct)).sum()
                )
            errs.append(np.mean(ds))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_damping_factors_compose_close_and_cptp(self, rng):
        ch = amplitude_damping(0.3)
        factors = sequential_factors(ch)
        for f in factors:
            assert validate(f).deviation <= 1e-9
        # composed map stays completely positive and trace preserving
        s = np.eye(4, dtype=complex)
        for f in factors:
            s = to_superoperator(f).matrix @ s
        assert cp_witness(Superoperator(s, 2)) >= -1e-9
        for _ in range(20):
            rho = random_density(rng)
            acc = rho
            for f in factors:
                acc = kraus_apply(f.operators, acc)
            direct = kraus_apply(ch.operators, rho)
            dist = 0.5 * np.abs(np.linalg.eigvalsh(acc - direct)).sum()
            assert dist <= 0.05
            assert abs(np.trace(acc) - 1) < 1e-12

    def test_singular_value_above_one_rejected(self):
        bad = KrausChannel(2, [1.2 * PAULI_X])
        with pytest.raises(DecompositionError):
            sequential_factors(bad)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            sequential_factors(amplitude_damping(0.2), mode="zeroth")


class TestChannelFiles:
    def test_round_trip(self, tmp_path, rng):
        ch = KrausChannel(2, random_channel_ops(rng, 2, 3), label="saved")
        path = tmp_path / "chan.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert back.dim == 2 and back.label == "saved"
        for a, b in zip(ch.operators, back.operators):
            assert np.allclose(a, b, atol=1e-15)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "operators": [], "extra": 1}')
        with pytest.raises(InvalidChannelError, match="extra"):
            load_channel(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "operators": [[[1, 0]]]}')
        with pytest.raises(InvalidChannelError, match="entries"):
            load_channel(path)

    def test_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"operators": []}')
        with pytest.raises(InvalidChannelError, match=r"^channel file missing key 'dim'$"):
            load_channel(path)


class TestKrausChannel:
    def test_operator_dim_must_match(self):
        with pytest.raises(
            DimensionMismatchError, match=r"^operator dim 3 does not match channel dim 2$"
        ):
            KrausChannel(2, [np.eye(3)])

    def test_needs_an_operator(self):
        with pytest.raises(InvalidChannelError, match=r"^a channel needs at least one operator$"):
            KrausChannel(2, [])

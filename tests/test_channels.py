import math

import numpy as np
import pytest

from oqsim.channels import (
    InvalidChannelError,
    KrausChannel,
    PAULI_I,
    ParameterError,
    amplitude_damping,
    apply_channel,
    dephasing,
    environment_dim,
    load_channel,
    pauli_channel,
    save_channel,
    stinespring_dilate,
)
from oqsim.qmath import DensityMatrix, DimensionMismatchError, Wire, partial_trace

from conftest import (
    KET0,
    KET1,
    KETP,
    choi_min_eigenvalue,
    kraus_apply,
    proj,
    qstate,
    random_channel_ops,
    random_density,
    unit_images,
)

COS2_PI20 = 0.9755282581475768      # 1 - sin(pi/20)^2
PPLUS_ONE_STEP = 0.9045084971874737  # (1 + (1 - 2 sin(pi/10)^2)) / 2


class TestCompleteness:
    def test_identity_passes(self):
        ch = KrausChannel(2, [PAULI_I], label="id")
        assert len(ch) == 1 and ch.label == "id"

    def test_amplitude_damping_passes(self):
        ch = amplitude_damping(0.3)
        # diag(1, 0.91) + diag(0, 0.09) = I
        acc = sum(op.conj().T @ op for op in ch.operators)
        assert np.linalg.norm(acc - np.eye(2)) < 1e-15

    def test_incomplete_set_fails(self):
        # deviation ||0.25 I - I||_F = 0.75 sqrt(2)
        with pytest.raises(
            InvalidChannelError,
            match=r"^channel '' completeness deviation 1\.061e\+00 exceeds 1e-09$",
        ):
            KrausChannel(2, [0.5 * PAULI_I])

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_entry_not_finite_or_above_one_fails_without_warning(self, entry):
        # sum K^dag K would overflow or warn first; pyproject makes a RuntimeWarning an error
        with pytest.raises(InvalidChannelError, match="^operator 1 of channel 'big' has an entry"):
            KrausChannel(2, [PAULI_I, np.diag([entry, 0.0])], label="big")


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
        # equal images of every unit |i><j| make the two maps equal
        gamma = 0.37
        a = unit_images(pauli_channel(0, 0, gamma**2).operators, 2)
        b = unit_images(dephasing(gamma).operators, 2)
        assert np.max(np.abs(a - b)) < 1e-12

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

    @pytest.mark.parametrize("which", ["px", "py", "pz"])
    def test_pauli_rejects_a_nan_probability(self, which):
        probs = {"px": 0.0, "py": 0.0, "pz": 0.0, which: math.nan}
        with pytest.raises(ParameterError, match=rf"^probability {which} = nan is not a finite number$"):
            pauli_channel(**probs)


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

    def test_invalid_channel_rejected(self):
        # refused where it is made, before any state meets it
        with pytest.raises(InvalidChannelError, match="completeness"):
            KrausChannel(2, [0.5 * PAULI_I])

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


class TestCpWitness:
    def test_builtin_channels_are_cp(self, rng):
        chans = [
            amplitude_damping(0.3),
            dephasing(0.8),
            pauli_channel(0.2, 0.1, 0.15),
            KrausChannel(2, random_channel_ops(rng, 2, 4), label="rank4"),
        ]
        for ch in chans:
            assert choi_min_eigenvalue(unit_images(ch.operators, 2)) >= -1e-9

    def test_identity_choi(self):
        # the identity map's Choi matrix is the projector |00> + |11> times its
        # adjoint, with eigenvalues 2, 0, 0, 0
        images = unit_images([PAULI_I], 2)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0
        choi = images.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        assert np.allclose(choi, np.outer(bell, bell), atol=1e-12)
        assert abs(choi_min_eigenvalue(images)) <= 1e-12

    def test_transpose_map_detected(self):
        # the transpose map sends |i><j| to |j><i|; its Choi matrix is the SWAP
        images = np.eye(4, dtype=complex).reshape(4, 2, 2).transpose(0, 2, 1)
        witness = choi_min_eigenvalue(images)
        assert witness < 0
        assert abs(witness - (-1.0)) < 1e-12


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

    @pytest.mark.parametrize("pair", ["[true, 0]", "[1, false]", '["1", 0]', "[null, 0]"])
    def test_rejects_entry_that_is_not_a_number_pair(self, tmp_path, pair):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": 1, "operators": [[{pair}]]}}')
        with pytest.raises(InvalidChannelError, match=r"^operator entries must be \[re, im\] number"):
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

import warnings
from itertools import combinations

import numpy as np
import pytest

from oqsim.qmath import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    UnknownWireError,
    Wire,
    is_hermitian,
    is_unitary,
    partial_trace,
    partial_trace_matrix,
    tensor_product,
    trace_distance,
)

from conftest import (
    KET0,
    KET1,
    KETP,
    brute_partial_trace,
    embed_operator,
    proj,
    qstate,
    random_density,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian([[1, 1j], [-1j, 2]])
        assert not is_hermitian([[1, 1j], [1j, 2]])

    def test_hermitian_tolerance(self):
        almost = np.array([[1, 1e-11], [0, 2]], dtype=complex)
        assert is_hermitian(almost)
        assert not is_hermitian(almost, atol=1e-13)

    def test_unitary(self):
        assert is_unitary(X)
        assert is_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert not is_unitary(0.5 * X)

    @pytest.mark.parametrize("value", [1e308, np.inf, np.nan])
    def test_non_finite_or_overflowing_matrix_is_not_unitary(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_unitary(np.full((2, 2), value))


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(tensor_product(I2, I2), np.eye(4))

    def test_projector_placement(self):
        got = tensor_product(proj(KET0), proj(KET1))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))

    def test_first_factor_most_significant(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        ket10 = tensor_product(X, I2) @ ket00.reshape(4, 1)
        want = np.zeros((4, 1), dtype=complex)
        want[2, 0] = 1.0  # |10> under first-wire-significant ordering
        assert np.array_equal(ket10, want)

    def test_associative_exact(self, rng):
        # small integer entries keep all products exactly representable
        for _ in range(25):
            mats = [
                (rng.integers(-8, 9, size=(2, 2)) + 1j * rng.integers(-8, 9, size=(2, 2)))
                for _ in range(3)
            ]
            a, b, c = mats
            left = tensor_product(tensor_product(a, b), c)
            right = tensor_product(a, tensor_product(b, c))
            assert np.array_equal(left, right)


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        for _ in range(10):
            a = random_density(rng)
            b = random_density(rng)
            rho = DensityMatrix(np.kron(a, b), (Wire("A"), Wire("B")))
            red = partial_trace(rho, "B")
            assert np.allclose(red.matrix, a, atol=1e-12)
            red2 = partial_trace(rho, "A")
            assert np.allclose(red2.matrix, b, atol=1e-12)

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix.from_pure(bell, (Wire("A"), Wire("B")))
        # oracle: explicit basis sum
        want = brute_partial_trace(rho.matrix, [2, 2], 1)
        assert np.allclose(want, I2 / 2, atol=1e-12)
        red = partial_trace(rho, "B")
        assert np.allclose(red.matrix, I2 / 2, atol=1e-12)

    def test_trace_last_wire_gives_scalar_one(self):
        rho = qstate(proj(KETP))
        red = partial_trace(rho, "q")
        assert red.matrix.shape == (1, 1)
        assert abs(red.matrix[0, 0] - 1.0) < 1e-12

    def test_unknown_wire(self):
        rho = qstate(proj(KET0))
        with pytest.raises(UnknownWireError, match="nope"):
            partial_trace(rho, "nope")

    def test_matrix_dims_must_match(self):
        with pytest.raises(DimensionMismatchError, match=r"^dims \[2, 3\] do not match matrix dim 4$"):
            partial_trace_matrix(np.eye(4) / 4, [2, 3], 0)

    def test_hermitian_property_vs_oracle(self, rng):
        # partial_trace(a (x) b over B) = a * trace(b) for Hermitian a, b
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = a + a.conj().T
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = b + b.conj().T
            mat = np.kron(a, b)
            got = partial_trace_matrix(mat, [2, 3], 1)
            assert np.allclose(got, a * np.trace(b), atol=1e-10)
            assert np.allclose(got, brute_partial_trace(mat, [2, 3], 1), atol=1e-10)

    def test_matches_brute_force_any_axis(self, rng):
        dims = [2, 3, 2]
        total = 12
        m = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        for axis in range(3):
            got = partial_trace_matrix(m, dims, axis)
            assert np.allclose(got, brute_partial_trace(m, dims, axis), atol=1e-12)

    @pytest.mark.parametrize("dims", [[2, 3, 2], [1, 2, 2, 3]])
    def test_any_set_of_axes_matches_brute_force_one_axis_at_a_time(self, rng, dims):
        total = int(np.prod(dims))
        m = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        for r in range(len(dims) + 1):
            for axes in combinations(range(len(dims)), r):
                want, rest = m, list(dims)
                for axis in sorted(axes, reverse=True):
                    want = brute_partial_trace(want, rest, axis)
                    del rest[axis]
                got = partial_trace_matrix(m, dims, *axes)
                assert got.shape == want.shape, axes
                assert np.allclose(got, want, atol=1e-12), axes
        assert np.array_equal(partial_trace_matrix(m, dims), m)
        assert np.isclose(partial_trace_matrix(m, dims, *range(len(dims)))[0, 0], np.trace(m))
        with pytest.raises(DimensionMismatchError, match="axes"):
            partial_trace_matrix(m, dims, len(dims))

    def test_stack_reduces_each_matrix(self, rng):
        stack = np.array([random_density(rng, 12) for _ in range(3)])
        got = partial_trace_matrix(stack, [2, 3, 2], 0, 2)
        assert got.shape == (3, 3, 3)
        for g, m in zip(got, stack):
            assert np.array_equal(g, partial_trace_matrix(m, [2, 3, 2], 0, 2))

    def test_preserves_trace(self, rng):
        rho = DensityMatrix(
            np.kron(random_density(rng), random_density(rng)), (Wire("A"), Wire("B"))
        )
        red = partial_trace(rho, "A")
        assert abs(np.trace(red.matrix) - 1.0) < 1e-10


class TestTraceDistance:
    def test_identical(self):
        rho = qstate(proj(KETP))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        d = trace_distance(qstate(proj(KET0)), qstate(proj(KET1)))
        assert abs(d - 1.0) < 1e-12

    def test_zero_vs_plus(self):
        d = trace_distance(qstate(proj(KET0)), qstate(proj(KETP)))
        assert abs(d - 0.7071067811865475) < 1e-12

    def test_dimension_mismatch(self):
        rho = qstate(proj(KET0))
        sigma = DensityMatrix(np.eye(4) / 4, (Wire("a"), Wire("b")))
        with pytest.raises(DimensionMismatchError):
            trace_distance(rho, sigma)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a, b, c = (qstate(random_density(rng)) for _ in range(3))
            dab = trace_distance(a, b)
            assert abs(dab - trace_distance(b, a)) < 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
            assert -1e-15 <= dab <= 1.0 + 1e-12


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError) as err:
            qstate(np.diag([0.6, 0.6]))
        assert err.value.invariant == "trace"

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError) as err:
            qstate(m)
        assert err.value.invariant == "hermitian"

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex)
        with pytest.raises(InvalidStateError) as err:
            qstate(m)
        assert err.value.invariant == "psd"

    def test_rejects_infinite_entry_at_the_trace(self):
        # inf - inf in the hermiticity skew may not warn: pyproject makes that an error
        with pytest.raises(InvalidStateError) as err:
            qstate(np.diag([1.0, np.inf]))
        assert err.value.invariant == "trace"

    def test_rejects_infinite_off_diagonal_pair(self):
        m = np.array([[1.0, np.inf], [np.inf, 0.0]], dtype=complex)
        with pytest.raises(InvalidStateError) as err:
            qstate(m)
        assert err.value.invariant == "hermitian"

    def test_rejects_layout_mismatch(self):
        with pytest.raises(InvalidStateError) as err:
            DensityMatrix(np.eye(2) / 2, (Wire("a"), Wire("b")))
        assert err.value.invariant == "layout"

    def test_immutable(self):
        rho = qstate(proj(KET0))
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestEmbedding:
    def test_single_wire(self):
        got = embed_operator(X, [1], [2, 2])
        assert np.array_equal(got, np.kron(I2, X))
        got = embed_operator(X, [0], [2, 2])
        assert np.array_equal(got, np.kron(X, I2))

    def test_two_wire_reversed_order(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        # control on the less significant wire of a 2-wire layout
        got = embed_operator(cnot, [1, 0], [2, 2])
        want = np.kron(I2, np.diag([1.0, 0.0])) + np.kron(X, np.diag([0.0, 1.0]))
        assert np.allclose(got, want, atol=1e-15)

    def test_middle_of_three(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        got = embed_operator(u, [1], [2, 2, 2])
        want = np.kron(np.kron(I2, u), I2)
        assert np.allclose(got, want, atol=1e-15)

    def test_conjugation_matches_kron_route(self, rng):
        # gate on wires (2, 0) of a 3-wire register vs explicit permutation
        g = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        full = embed_operator(g, [2, 0], [2, 2, 2])
        assert is_unitary(full)
        # spot-check action on basis kets |a b c>
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    ket = np.zeros(8, dtype=complex)
                    ket[a * 4 + b * 2 + c] = 1.0
                    out = full @ ket
                    small = np.zeros(4, dtype=complex)
                    small[c * 2 + a] = 1.0
                    sub = g @ small
                    want = np.zeros(8, dtype=complex)
                    for cc in range(2):
                        for aa in range(2):
                            want[aa * 4 + b * 2 + cc] += sub[cc * 2 + aa]
                    assert np.allclose(out, want, atol=1e-12)

"""The closed-form qubit eigenvalues behind ``check_states`` and
``trace_distance_matrix``, against ``np.linalg.eigvalsh``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.qmath import InvalidStateError, Wire, _eigvalsh, check_states, trace_distance_matrix

from conftest import random_density

KINDS = ("general", "diagonal", "degenerate", "pure")


def hermitian_2x2(rng, kind, lead):
    """A stack of Hermitian 2x2 matrices of one kind, of largest entry about 1."""
    a, c = rng.normal(size=(2, *lead))
    b = rng.normal(size=lead) + 1j * rng.normal(size=lead)
    if kind == "diagonal":
        b = 0 * b
    elif kind == "degenerate":
        c, b = a, 0 * b
    elif kind == "pure":  # v v^dag
        v = rng.normal(size=(*lead, 2)) + 1j * rng.normal(size=(*lead, 2))
        a, c, b = abs(v[..., 0]) ** 2, abs(v[..., 1]) ** 2, v[..., 1] * v[..., 0].conj()
    m = np.empty((*lead, 2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1], m[..., 1, 0] = a, c, b
    # eigvalsh reads only the lower triangle: the upper one is anything
    m[..., 0, 1] = rng.normal(size=lead) + 1j * rng.normal(size=lead)
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
    exponent=st.floats(-12, 3),
    lead=st.sampled_from([(), (1,), (7,), (3, 4)]),
    seed=st.integers(0, 2**16),
)
def test_qubit_eigenvalues_match_lapack(kind, exponent, lead, seed):
    m = 10.0**exponent * hermitian_2x2(np.random.default_rng(seed), kind, lead)
    want = np.linalg.eigvalsh(m)
    got = _eigvalsh(m)
    assert got.shape == want.shape == (*lead, 2)
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert (np.abs(got - want) <= 1e-15 * scale).all()


def test_qubit_eigenvalues_of_a_real_stack_match_lapack(rng):
    m = rng.normal(size=(50, 2, 2))
    assert np.allclose(_eigvalsh(m), np.linalg.eigvalsh(m), rtol=0, atol=1e-15 * np.abs(m).max())


def test_other_sizes_go_to_lapack(monkeypatch, rng):
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    check_states(np.array([random_density(rng, 4) for _ in range(3)]), (Wire("a"), Wire("b")))
    check_states(np.array([random_density(rng) for _ in range(3)]), (Wire("q"),))
    trace_distance_matrix(random_density(rng), random_density(rng))
    assert calls == [(3, 4, 4)]


def with_low_eigenvalue(rng, low):
    """A 2x2 unit-trace Hermitian matrix of eigenvalues ``low`` and ``1 - low``."""
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (q * [low, 1 - low]) @ q.conj().T


def eigvalsh_verdict(stack):
    """(index, invariant, eigenvalue) of the first 2x2 state below -1e-9, by LAPACK."""
    lows = np.linalg.eigvalsh(stack).min(axis=1)
    bad = np.flatnonzero(lows < -1e-9)
    return (int(bad[0]), "psd", lows[bad[0]]) if bad.size else None


@pytest.mark.parametrize("low", [-1e-6, -2e-9, -5e-10])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_check_states_psd_verdict_matches_lapack(rng, low, at):
    stack = np.array([random_density(rng) for _ in range(10)])
    stack[at] = with_low_eigenvalue(rng, low)
    want = eigvalsh_verdict(stack)
    assert (want is None) == (low > -1e-9)
    if want is None:
        check_states(stack, (Wire("q"),))
        return
    with pytest.raises(InvalidStateError) as err:
        check_states(stack, (Wire("q"),))
    assert (err.value.index, err.value.invariant) == want[:2]
    shown = float(str(err.value).split()[2])
    assert abs(shown - want[2]) <= 1e-15


@pytest.mark.parametrize("lead", [(), (101,), (3, 5)])
def test_trace_distance_matrix_matches_the_eigvalsh_formula(rng, lead):
    a, b = (np.reshape([random_density(rng) for _ in range(int(np.prod(lead)))], (*lead, 2, 2))
            for _ in range(2))
    want = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    got = trace_distance_matrix(a, b)
    assert np.shape(got) == lead
    assert (np.abs(got - want) <= 1e-15).all()

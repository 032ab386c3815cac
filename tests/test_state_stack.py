"""The stack checker and ``run``'s batched records against one
``DensityMatrix`` (and one ``np.trace``) per state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.channels import pauli_channel
from oqsim.circuit import (
    MemorySpec,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
)
from oqsim.engine import evolve, projector_observable, purity, run
from oqsim.qmath import DensityMatrix, InvalidStateError, Wire, check_states

from conftest import random_density

BREAKS = ("none", "trace", "hermitian", "psd", "nan")


def broken(rho, how, size):
    """``rho`` perturbed by ``size`` so that it may break one invariant."""
    out = rho.copy()
    d = len(rho)
    if how == "trace":
        out *= 1.0 + size
    elif how == "hermitian" and d > 1:
        out[0, -1] += size
        out[-1, 0] -= size
    elif how == "psd":
        vals, vecs = np.linalg.eigh(rho)
        shift = vals[0] + size
        vals[0] -= shift
        vals[-1] += shift
        out = (vecs * vals) @ vecs.conj().T
    elif how == "nan":
        out[-1, 0] = np.nan
    return out


def first_failure(stack, layout):
    """(index, invariant, message) of the first state DensityMatrix rejects."""
    for i, m in enumerate(stack):
        try:
            DensityMatrix(m, layout)
        except InvalidStateError as exc:
            return i, exc.invariant, str(exc)
    return None


@st.composite
def stacks(draw):
    dims = draw(st.sampled_from([(1,), (2,), (3,), (2, 2), (4,)]))
    d = math.prod(dims)
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stack = np.array([random_density(rng, d) for _ in range(n)])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        how = draw(st.sampled_from(BREAKS))
        # from well inside every tolerance to well beyond it
        size = 10.0 ** draw(st.integers(-13, -2))
        stack[i] = broken(stack[i], how, size)
    layout = tuple(Wire(f"w{j}", k) for j, k in enumerate(dims))
    if rng.random() < 0.1:  # a layout that does not fit fails every stack at index 0
        layout = layout + (Wire("extra", 2),)
    return stack, layout


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=stacks())
def test_stack_check_agrees_with_one_density_matrix_per_state(case):
    stack, layout = case
    want = first_failure(stack, layout)
    if want is None:
        check_states(stack, layout)
        return
    with pytest.raises(InvalidStateError) as err:
        check_states(stack, layout)
    assert (err.value.index, err.value.invariant, str(err.value)) == want


def test_nan_state_fails_as_hermitian():
    stack = np.array([np.eye(2) / 2, np.full((2, 2), np.nan)], dtype=complex)
    with pytest.raises(InvalidStateError) as err:
        check_states(stack, (Wire("q"),))
    assert (err.value.index, err.value.invariant) == (1, "hermitian")


THETAS = (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6)
BUILDERS = {
    "markovian": build_markovian_step("amplitude-damping", math.pi / 7),
    "memory-k3": build_nonmarkovian_step("dephasing", MemorySpec(3, THETAS)),
    "sequential": build_sequential_step(pauli_channel(0.05, 0.1, 0.15)),
}
NAMES = ("p0", "p1", "p+", "p-")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(BUILDERS)),
    seed=st.integers(0, 2**16),
    names=st.lists(st.sampled_from(NAMES), max_size=4, unique=True),
)
def test_run_records_what_each_state_gives(name, seed, names):
    step = BUILDERS[name]
    observables = [projector_observable(n) for n in names]
    rho0 = DensityMatrix(random_density(np.random.default_rng(seed)), (Wire("q"),))
    traj = run(step, rho0, 12, observables)
    states = list(evolve(step, rho0, 12))
    assert len(traj.records) == len(states) == 13
    for n, (rec, red) in enumerate(zip(traj.records, states)):
        assert rec.step == n
        assert list(rec.values) == names
        for obs in observables:
            assert abs(rec.values[obs.name] - np.trace(obs.projector @ red).real) <= 1e-12
        assert abs(rec.trace - np.trace(red).real) <= 1e-12
        assert abs(rec.purity - purity(DensityMatrix(red, rho0.layout))) <= 1e-12

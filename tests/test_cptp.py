"""Every builder's step is a CPTP map, in both forms of its compiled program.

A form's map is given by its images of the d^2 units |i><j|, stacked at
i d + j and run through one :func:`run_compiled` call: d is the whole
register (d <= 16) for the full layout and the carried register for the
form ``evolve`` runs. The Choi matrix built from those images must be
positive semidefinite and each image must keep the trace of |i><j|, which
is delta_ij.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oqsim.channels import KrausChannel
from oqsim.circuit import (
    MemorySpec,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    compile_step,
    run_compiled,
)

from conftest import choi_min_eigenvalue, random_channel_ops

KINDS = st.sampled_from(["amplitude-damping", "dephasing"])
ANGLES = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
SEEDS = st.integers(0, 2**16)


def _mixed_unitary(seed, l):
    """sqrt(p_i) U_i for random weights p and Haar-ish unitaries U_i."""
    rng = np.random.default_rng(seed)
    ops = []
    for p in rng.dirichlet(np.ones(l)):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ops.append(math.sqrt(p) * q)
    return KrausChannel(2, ops, label=f"mixed-unitary-l{l}")


STEPS = st.one_of(
    st.builds(build_markovian_step, KINDS, ANGLES),
    st.builds(
        lambda kind, thetas: build_nonmarkovian_step(kind, MemorySpec(len(thetas), thetas)),
        KINDS, st.lists(ANGLES, min_size=2, max_size=3),
    ),
    st.builds(
        lambda seed, l: build_sequential_step(_mixed_unitary(seed, l)),
        SEEDS, st.integers(1, 4),
    ),
    st.builds(
        lambda seed, l: build_dilation_step(
            KrausChannel(2, random_channel_ops(np.random.default_rng(seed), 2, l))
        ),
        SEEDS, st.integers(1, 8),
    ),
)


def _assert_cptp(program):
    d = program[1].shape[1]
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |i><j| at i d + j
    images = run_compiled(program, units)
    assert np.max(np.abs(np.trace(images, axis1=1, axis2=2) - np.eye(d).ravel())) <= 1e-12
    assert choi_min_eigenvalue(images) >= -1e-9


@settings(max_examples=80, deadline=None, derandomize=True)
@given(step=STEPS)
def test_every_builders_step_is_cptp(step):
    assert math.prod(w.dim for w in step.layout) <= 16
    _assert_cptp(compile_step(step, full=True))
    _assert_cptp(compile_step(step))

"""``engine.evolve`` and its two consumers, ``run`` and ``blp_witness``,
against the per-op dense oracle in conftest."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oqsim.circuit as circuit
import oqsim.engine as engine
from oqsim.analysis import blp_witness
from oqsim.channels import KrausChannel, pauli_channel
from oqsim.circuit import (
    GateOp,
    MemorySpec,
    StepCircuit,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
    compile_step,
    run_compiled,
)
from oqsim.engine import evolve, projector_observable, run
from oqsim.qmath import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    Wire,
    partial_trace_matrix,
)

from conftest import (
    brute_partial_trace,
    dense_reduce,
    dense_trajectory,
    random_channel_ops,
    random_density,
    sequential_with_storage,
)

KINDS = ("amplitude-damping", "dephasing")
THETAS = (math.pi / 10, 2 * math.pi / 3, 5 * math.pi / 6, math.pi / 4)
STEPS = 30


def _steps():
    steps = {}
    for kind in KINDS:
        steps[f"markovian-{kind}"] = build_markovian_step(kind, math.pi / 7)
        for k in range(2, 5):
            steps[f"memory-{kind}-k{k}"] = build_nonmarkovian_step(
                kind, MemorySpec(k, THETAS[:k])
            )
    pauli = pauli_channel(0.05, 0.1, 0.15)
    # layout (c, q, e..): q sits between two traced blocks
    steps["sequential"] = build_sequential_step(pauli)
    steps["sequential-memory-k3"] = sequential_with_storage(pauli, *THETAS[1:3])
    ops = random_channel_ops(np.random.default_rng(5), n=2, l=4)
    steps["dilation"] = build_dilation_step(KrausChannel(2, ops, label="rand2"))
    return steps


BUILDERS = _steps()


def _system_state(step, rng):
    layout = tuple(w for w in step.layout if w.label in step.system)
    dim = math.prod(w.dim for w in layout)
    return DensityMatrix(random_density(rng, dim), layout)


def test_dense_reduce_matches_brute_partial_trace(rng):
    dims = [2, 3, 2]
    mat = random_density(rng, 12)
    want = brute_partial_trace(brute_partial_trace(mat, dims, 2), dims[:2], 0)
    assert np.max(np.abs(dense_reduce(mat, dims, [1]) - want)) <= 1e-14


def test_sequential_system_has_two_traced_blocks():
    labels = BUILDERS["sequential-memory-k3"].wire_labels
    assert labels.index("q") == 1 and len(labels) == 5


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_evolve_matches_dense_oracle(name, rng):
    step = BUILDERS[name]
    rho0 = _system_state(step, rng)
    got = evolve(step, [rho0], STEPS)[:, 0]
    want = dense_trajectory(step, rho0, STEPS)
    assert len(got) == STEPS + 1
    for n, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= 1e-12, f"step {n}"


@pytest.mark.parametrize("name", ["memory-amplitude-damping-k3", "sequential-memory-k3"])
def test_evolve_of_several_states_stacks_the_single_state_results(name, rng):
    step = BUILDERS[name]
    a, b = _system_state(step, rng), _system_state(step, rng)
    got = evolve(step, [a, b], 12)
    assert got.shape == (13, 2, 2, 2)
    want = np.stack([evolve(step, [a], 12)[:, 0], evolve(step, [b], 12)[:, 0]], axis=1)
    assert np.array_equal(got, want)


def _pure_state(step, rng):
    layout = tuple(w for w in step.layout if w.label in step.system)
    v = rng.normal(size=math.prod(w.dim for w in layout)) * (1 + 0.5j)
    return DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real, layout)


def _overshooting_step():
    """A random unitary on q, a, e1, e2, then resets of e1 and e2: d_c = 4 (q and a) and
    r = 4 >= d_c, so the program has a superoperator and one factor step takes the (4, 2)
    lift past d_c, to 8 columns."""
    g = np.random.default_rng(3).normal(size=(2, 16, 16))
    u = np.linalg.qr(g[0] + 1j * g[1])[0]
    layout = tuple(Wire(w) for w in ("q", "a", "e1", "e2"))
    ops = [GateOp("unitary-apply", ("q", "a", "e1", "e2"), matrix=u)]
    return StepCircuit("overshoot", layout, ("q",), ops + [GateOp.reset("e1"), GateOp.reset("e2")])


FACTOR_STEPS = {"overshoot": _overshooting_step(), **BUILDERS}


def _factor_widths(step, steps):
    """Columns of each factor step's kernel input, s r^n while below d_c, within ``steps``."""
    _, kraus, *_ = compile_step(step)
    dc, m = kraus.shape[1], math.prod(w.dim for w in step.layout if w.label in step.system)
    widths = []
    while m < dc and len(widths) < steps:
        widths.append(m)
        m *= len(kraus)
    return widths


def _matches_oracle(step, states, got):
    for i, rho0 in enumerate(states):
        for n, want in enumerate(dense_trajectory(step, rho0, len(got) - 1)):
            assert np.max(np.abs(got[n, i] - want)) <= 1e-12, f"state {i}, step {n}"


@pytest.mark.parametrize("purity", ["pure", "mixed"])
@pytest.mark.parametrize("name", sorted(FACTOR_STEPS))
def test_factor_start_matches_dense_oracle(monkeypatch, rng, name, purity):
    step = FACTOR_STEPS[name]
    rho0 = (_pure_state if purity == "pure" else _system_state)(step, rng)
    factor, dc = _factor_widths(step, 8), compile_step(step)[1].shape[1]
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 8)
    widths = [states.shape[-1] for _, states in kernels]
    assert widths[:len(factor)] == factor and set(widths[len(factor):]) <= {dc}
    _matches_oracle(step, [rho0], got)


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["overshoot", "memory-dephasing-k3"])
def test_steps_around_the_switch_to_dense_states(monkeypatch, rng, name, steps):
    step = FACTOR_STEPS[name]  # overshoot switches after step 1, memory k=3 (d_c = 8) after 2
    states = [_pure_state(step, rng), _system_state(step, rng)]
    shapes = []
    kernels = _counting(monkeypatch, "run_compiled", lambda _, out: shapes.append(out.shape) or out)
    got = evolve(step, states, steps)
    assert got.shape == (steps + 1, 2, 2, 2)
    # runs this short have B = 1: one call per factor step and state, then one per dense step;
    # memory k=3 is real, so its dense steps carry the pair as Re and Im of both, 4 real states
    factor, dc = _factor_widths(step, steps), compile_step(step)[1].shape[1]
    rows = 2 if name == "overshoot" else 4
    want = [(1, dc, w) for w in factor for _ in states] + [(rows, dc, dc)] * (steps - len(factor))
    assert [s.shape for _, s in kernels] == want
    if name == "overshoot":
        assert compile_step(step)[3] is not None
        assert shapes == ([(1, 4, 8)] * 2 + [(2, 4, 4)] * 2)[:steps + min(steps, 1)]
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3])
def test_factor_steps_across_chunk_boundaries(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["memory-amplitude-damping-k4"]  # d_c = 16: three factor steps, then B = 1
    states = [_pure_state(step, rng), _system_state(step, rng)]  # a real and a complex state
    kernels = _counting(monkeypatch, "run_compiled")
    whole = evolve(step, states, 40)
    want = [(1, 16, w) for w in (2, 4, 8) for _ in states] + [(4, 16, 16)] * 37
    assert [s.shape for _, s in kernels] == want  # one call per dense step, for both states
    _chunk_steps(monkeypatch, step, 4, steps_per_chunk)  # 2 states as 4 real ones
    got = evolve(step, states, 40)
    assert np.array_equal(got, whole)
    _matches_oracle(step, states, got)


def test_run_compiled_on_a_factor_is_the_step_of_its_state(rng):
    program = compile_step(BUILDERS["memory-amplitude-damping-k4"])
    r, dc = program[1].shape[:2]
    g = rng.normal(size=(2, 3, dc, 6)) / dc
    factors, x = g[0] + 1j * g[1], random_density(rng, 2)

    def state(w):  # w (I (x) x) w^dag
        return w @ np.kron(np.eye(w.shape[-1] // 2), x) @ w.conj().swapaxes(-1, -2)

    wide = run_compiled(program, factors)
    assert wide.shape == (3, dc, 6 * r)
    assert np.max(np.abs(state(wide) - run_compiled(program, state(factors)))) <= 1e-12


def _counting(monkeypatch, name, replace=None):
    """Wrap ``engine.<name>`` to record its calls; ``replace(index, result)`` may alter a result."""
    calls, original = [], getattr(engine, name)

    def wrapper(*args, **kwargs):  # records the positional arguments only
        calls.append(args)
        result = original(*args, **kwargs)
        return result if replace is None else replace(len(calls) - 1, result)

    monkeypatch.setattr(engine, name, wrapper)
    return calls


def _chunk_steps(monkeypatch, step, n_states, steps_per_chunk):
    """Set evolve's chunk budget so that one chunk holds ``steps_per_chunk`` steps."""
    dc = math.prod(step.layout[i].dim for i in engine.compile_step(step)[0])
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", steps_per_chunk * n_states * dc * dc)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3])
def test_chunked_evolve_is_bit_identical_to_one_chunk(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["sequential-memory-k3"]
    states = [_system_state(step, rng) for _ in range(3)]
    whole = evolve(step, states, 7)
    _chunk_steps(monkeypatch, step, 3, steps_per_chunk)
    reductions = _counting(monkeypatch, "partial_trace_matrix")
    got = evolve(step, states, 7)
    assert np.array_equal(got, whole)
    # r = 16: step 0 is rho0 and step 1 fills d_c = 8, so steps 1..7 are reduced by chunks
    assert len(reductions) == {1: 7, 2: 4, 3: 3}[steps_per_chunk]


def test_chunk_budget_below_one_step_gives_one_step_chunks(monkeypatch, rng):
    step = BUILDERS["memory-dephasing-k3"]
    states = [_system_state(step, rng) for _ in range(2)]
    whole = evolve(step, states, 4)
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", 1)
    reductions = _counting(monkeypatch, "partial_trace_matrix")
    assert np.array_equal(evolve(step, states, 4), whole)
    # d_c = 8, r = 2: step 0 is rho0, step 1 is read from its factor, 2..4 reduced one by one
    assert [len(stack) for stack, *_ in reductions] == [1] * 3


def test_chunk_buffer_holds_at_most_the_budget(monkeypatch, rng):
    step = BUILDERS["markovian-dephasing"]  # d_c = 2: 2048 steps of Re rho and Im rho fill
    reductions = _counting(monkeypatch, "partial_trace_matrix")  # the 2**14 entries
    evolve(step, [_system_state(step, rng)], 9000)
    assert [len(stack) for stack, *_ in reductions] == [2048] * 4 + [809]
    assert all(stack.size <= 2**14 for stack, *_ in reductions)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3, 6])  # 6: all 5 steps and the start
def test_evolve_compiles_once_and_runs_each_state_once_per_step(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["sequential-memory-k3"]
    _chunk_steps(monkeypatch, step, 3, steps_per_chunk)
    programs = []
    compiles = _counting(monkeypatch, "compile_step", lambda _, p: programs.append(p) or p)
    kernels = _counting(monkeypatch, "run_compiled")
    evolve(step, [_system_state(step, rng) for _ in range(3)], 5)
    assert len(compiles) == 1 and len(kernels) == 3 + 4
    assert all(program is programs[0] for program, _ in kernels)
    # r = 16: one factor step takes each state's (8, 2) lift past d_c = 8; then B = 1 in a run
    # this short, so each dense step is one call on all three states
    want = [(1, 8, 2)] * 3 + [(3, 8, 8)] * 4
    assert [states.shape for _, states in kernels] == want


def test_k7_factor_doubles_until_it_fills_the_carried_register(monkeypatch, rng):
    mem = MemorySpec(7, (0.3, 1.1, 2.0, 0.7, 2.9, 0.4, 1.6))
    step = build_nonmarkovian_step("amplitude-damping", mem)
    rho0 = _system_state(step, rng)
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 8)
    want = [(1, 128, 2**n) for n in range(1, 7)] + [(2, 128, 128)] * 2  # Re rho and Im rho
    assert [states.shape for _, states in kernels] == want
    _matches_oracle(step, [rho0], got)


def _basis_state(step, *weights):
    """The diagonal state sum_i weights[i] |i><i| on the system wires."""
    layout = tuple(w for w in step.layout if w.label in step.system)
    diag = np.zeros(math.prod(w.dim for w in layout))
    diag[:len(weights)] = weights
    return DensityMatrix(np.diag(diag).astype(complex), layout)


def test_k7_from_a_basis_state_lifts_one_column(monkeypatch):
    mem = MemorySpec(7, (0.3, 1.1, 2.0, 0.7, 2.9, 0.4, 1.6))
    step = build_nonmarkovian_step("amplitude-damping", mem)
    rho0 = _basis_state(step, 0.0, 1.0)
    kernels = _counting(monkeypatch, "run_compiled")
    reductions = _counting(monkeypatch, "partial_trace_matrix")
    got = evolve(step, [rho0], 9)
    want = [(1, 128, 2**n) for n in range(7)] + [(1, 128, 128)] * 2
    assert [states.shape for _, states in kernels] == want
    assert [len(stack) for stack, *_ in reductions] == [1] * 3  # steps 7..9; 1..6 read from W
    _matches_oracle(step, [rho0], got)


def test_a_call_from_zero_and_one_lifts_both_basis_states(monkeypatch):
    step = BUILDERS["memory-amplitude-damping-k3"]
    states = [_basis_state(step, 1.0), _basis_state(step, 0.0, 1.0)]
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, states, 4)
    assert [s.shape for _, s in kernels] == [(1, 8, 2)] * 2 + [(1, 8, 4)] * 2 + [(2, 8, 8)] * 2
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("kind", KINDS)
def test_markovian_arm_from_one_takes_one_factor_step_then_the_superoperator(monkeypatch, kind):
    step = BUILDERS[f"markovian-{kind}"]
    rho0 = _basis_state(step, 0.0, 1.0)
    assert compile_step(step)[3] is not None
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 5)
    # B = 2 for the dense steps 1..5: step 2 is one call, steps 3..5 are S^2 of steps 1..3
    assert [s.shape for _, s in kernels] == [(1, 2, 1), (1, 2, 2)]
    _matches_oracle(step, [rho0], got)


def _system_behind_a_carried_wire():
    """Layout (a, q, e) with a carried, e reset: the system rows sit in two blocks of W."""
    layout = tuple(Wire(w) for w in ("a", "q", "e"))
    ops = [
        GateOp.gate("CRy", ("q", "e"), 1.1),
        GateOp.gate("CNOT", ("e", "a")),
        GateOp.gate("CZ", ("a", "q")),
        GateOp.reset("e"),
    ]
    return StepCircuit("behind", layout, ("q",), ops)


def _qutrit_step():
    g = np.random.default_rng(8).normal(size=(2, 9, 9))
    u = np.linalg.qr(g[0] + 1j * g[1])[0]
    layout = (Wire("a", 3), Wire("q", 3), Wire("e", 3))
    ops = [GateOp("unitary-apply", ("q", "e"), matrix=u), GateOp.reset("e")]
    return StepCircuit("qutrit", layout, ("q",), ops + [GateOp.swap("a", "e")])


@pytest.mark.parametrize(
    "name, weights, width",
    [
        ("memory-dephasing-k3", (0.25, 0.75), 2),
        ("behind", (0.0, 1.0), 1),
        ("qutrit", (0.5, 0.0, 0.5), 2),  # rows 0 and 2: a lift with a gap
    ],
)
def test_diagonal_mixed_start_matches_the_oracle(monkeypatch, name, weights, width):
    step = {"behind": _system_behind_a_carried_wire(), "qutrit": _qutrit_step(), **BUILDERS}[name]
    rho0 = _basis_state(step, *weights)
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 6)
    assert kernels[0][1].shape[-1] == width
    _matches_oracle(step, [rho0], got)


def test_a_run_that_ends_among_the_factor_steps_forms_no_carried_state(monkeypatch):
    step = BUILDERS["memory-amplitude-damping-k4"]  # d_c = 16: widths 1, 2, 4, 8 from |1>
    rho0 = _basis_state(step, 0.0, 1.0)
    reductions = _counting(monkeypatch, "partial_trace_matrix")
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 3)
    assert [s.shape[-1] for _, s in kernels] == [1, 2, 4] and reductions == []
    _matches_oracle(step, [rho0], got)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3, 6])
def test_evolve_error_index_is_step_times_states_plus_state(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["memory-dephasing-k2"]  # d_c = 4: step 1 fills it, steps 1..5 are reduced
    _chunk_steps(monkeypatch, step, 2, steps_per_chunk)
    first = [1]  # the step of the next reduced slot

    def break_state_1_from_step_3(_, reduced):
        reduced[max(3 - first[0], 0):, 1] *= 2
        first[0] += len(reduced)
        return reduced

    _counting(monkeypatch, "partial_trace_matrix", break_state_1_from_step_3)
    with pytest.raises(InvalidStateError) as info:
        evolve(step, [_system_state(step, rng), _system_state(step, rng)], 5)
    assert info.value.invariant == "trace" and info.value.index == 7


def _per_step(step, states, steps):
    """The plain loop: |0><0| (x) rho0 (x) |0><0| on the carried register, one kernel call per
    step on all states, and the system block of each step's states by a partial trace."""
    program = compile_step(step)
    kept = [step.layout[i] for i in program[0]]
    at = [w.label for w in kept].index(step.system[0])
    s = states[0].dim
    before = math.prod(w.dim for w in kept[:at])
    after = math.prod(w.dim for w in kept) // (before * s)
    zero = [np.diag([1.0] + [0.0] * (d - 1)) for d in (before, after)]
    rho = np.array([np.kron(np.kron(zero[0], r.matrix), zero[1]) for r in states])
    stack = [rho]
    for _ in range(steps):
        stack.append(rho := run_compiled(program, rho))
    return partial_trace_matrix(np.array(stack), (before, s, after), 0, 2)


SMALL_STEPS = {  # d_c <= 9, where evolve's block size B can exceed 1
    name: step
    for name, step in {"qutrit": _qutrit_step(), **FACTOR_STEPS}.items()
    if compile_step(step)[1].shape[1] <= 9
}


def _start(step, rng, kind):
    """A mixed, pure or basis state on the system wires."""
    if kind == "basis":
        weights = [0.0] * (math.prod(w.dim for w in step.layout if w.label in step.system) - 1)
        weights.insert(int(rng.integers(len(weights) + 1)), 1.0)
        return _basis_state(step, *weights)
    return (_pure_state if kind == "pure" else _system_state)(step, rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SMALL_STEPS)),
    kinds=st.lists(st.sampled_from(["mixed", "pure", "basis"]), min_size=1, max_size=3),
    steps=st.integers(0, 600),
    steps_per_chunk=st.sampled_from([1, 2, 3, 5, 37, None]),  # None: the default budget
    seed=st.integers(0, 2**16),
)
def test_block_loop_matches_the_per_step_loop(name, kinds, steps, steps_per_chunk, seed):
    step, rng = SMALL_STEPS[name], np.random.default_rng(seed)
    states = [_start(step, rng, kind) for kind in kinds]
    with pytest.MonkeyPatch.context() as patch:
        if steps_per_chunk is not None:
            _chunk_steps(patch, step, len(states), steps_per_chunk)
        got = evolve(step, states, steps)
    assert np.max(np.abs(got - _per_step(step, states, steps)), initial=0.0) <= 1e-12


def test_fig7_memory_arm_over_3000_steps_matches_the_per_step_loop():
    mem = MemorySpec(3, (math.pi / 5, math.pi / 4, math.pi / 2))  # the fig7 preset's angles
    step = build_nonmarkovian_step("dephasing", mem)
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (Wire("q"),))
    got = evolve(step, [plus], 3000)
    assert np.max(np.abs(got - _per_step(step, [plus], 3000))) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [6, 7, 8])
def test_wide_memory_steps_match_the_per_step_loop(monkeypatch, rng, kind, k):
    """Factor steps from |1>, then dense steps, with the amplitude-damping K_j on their nonzero
    columns only; with no column dropped the run is the same within 1e-12."""
    step = build_nonmarkovian_step(kind, MemorySpec(k, tuple(0.3 + 0.7 * i for i in range(k))))
    states = [_basis_state(step, 0.0, 1.0), _system_state(step, rng)]
    got = evolve(step, states, k + 3)
    assert np.max(np.abs(got - _per_step(step, states, k + 3))) <= 1e-12
    monkeypatch.setattr(circuit, "CALL_MACS", math.inf)  # no gather
    assert compile_step(step)[4] is None
    assert np.max(np.abs(got - evolve(step, states, k + 3))) <= 1e-12


def test_block_size_doubles_only_where_the_squarings_pay():
    assert engine._block(16, 64) == 1  # 64 slots: the largest chunk at d_c = 16
    assert engine._block(128, 2) == 1
    assert engine._block(8, 49) == 8  # a blp_grid pair's 49 dense steps
    assert engine._block(2, 4096) == 2048
    assert [engine._block(2, slots) for slots in (1, 2, 3)] == [1, 1, 1]


def test_a_state_that_fills_the_register_starts_dense_from_itself(monkeypatch):
    step = BUILDERS["markovian-dephasing"]  # d_c = s = 2: |+> occupies both basis states
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (Wire("q"),))
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [plus], 1)
    assert len(kernels) == 1 and np.array_equal(kernels[0][1], plus.matrix[np.newaxis])
    _matches_oracle(step, [plus], got)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_run_records_the_oracle_states(name, rng):
    step = BUILDERS[name]
    rho0 = _system_state(step, rng)
    obs = projector_observable("p1")
    traj = run(step, rho0, 10, [obs])
    for rec, want in zip(traj.records, dense_trajectory(step, rho0, 10)):
        assert abs(rec.values["p1"] - np.trace(obs.projector @ want).real) <= 1e-12
        assert abs(rec.purity - np.trace(want @ want).real) <= 1e-12


def _oracle_revival_sum(step, rho_a, rho_b):
    a = dense_trajectory(step, rho_a, STEPS)
    b = dense_trajectory(step, rho_b, STEPS)
    dist = [0.5 * np.abs(np.linalg.eigvalsh(x - y)).sum() for x, y in zip(a, b)]
    return sum(max(cur - prev, 0.0) for prev, cur in zip(dist, dist[1:]))


@pytest.mark.parametrize("name", ["memory-amplitude-damping-k3", "sequential-memory-k3"])
def test_blp_witness_is_the_oracle_revival_sum(name, rng):
    step = BUILDERS[name]
    rho_a, rho_b = _system_state(step, rng), _system_state(step, rng)
    want = _oracle_revival_sum(step, rho_a, rho_b)
    assert abs(blp_witness(step, rho_a, rho_b, STEPS) - want) <= 1e-12


# -- the run's dtype follows its data -----------------------------------------

QUBIT_STARTS = {
    "|0>": np.diag([1.0, 0.0]),
    "|1>": np.diag([0.0, 1.0]),
    "|+>": np.full((2, 2), 0.5),
    "|+i>": np.array([[0.5, -0.5j], [0.5j, 0.5]]),  # the one named start off the real axis
}


def _qubits(rng, *names):
    """Named starts, or ``real`` / ``complex`` for a random mixed state of that kind."""
    mixed = {"real": random_density(rng).real, "complex": random_density(rng)}
    return [DensityMatrix({**QUBIT_STARTS, **mixed}[n], (Wire("q"),)) for n in names]


def _kernel_dtypes(monkeypatch):
    """Wrap ``engine.run_compiled`` and ``engine.superoperator`` to record the dtypes of their
    array arguments, ``out`` and results: the kernel's states, and S, which the S^w products
    read."""
    seen = []
    for name in ("run_compiled", "superoperator"):

        def wrapper(*args, original=getattr(engine, name), **kwargs):
            result = original(*args, **kwargs)
            arrays = (*args, kwargs.get("out"), result)
            seen.extend(a.dtype for a in arrays if isinstance(a, np.ndarray))
            return result

        monkeypatch.setattr(engine, name, wrapper)
    return seen


@pytest.mark.parametrize(
    "starts", [("|1>",), ("|0>", "|+>", "real"), ("|+i>",), ("|1>", "|+i>"), ("complex",)]
)
@pytest.mark.parametrize(
    "name",
    ["markovian-amplitude-damping", "memory-dephasing-k3", "memory-amplitude-damping-k4",
     "sequential", "overshoot"],
)
def test_kernel_inputs_are_real_exactly_when_the_program_is(monkeypatch, rng, name, starts):
    step, states = FACTOR_STEPS[name], _qubits(rng, *starts)
    real = compile_step(step)[1].dtype == np.float64
    assert real == (name not in ("sequential", "overshoot"))  # Y and Haar gates
    seen = _kernel_dtypes(monkeypatch)
    got = evolve(step, states, 12)
    assert got.dtype == np.complex128
    assert seen and set(seen) == {np.dtype(np.float64 if real else np.complex128)}
    assert np.max(np.abs(got - _per_step(step, states, 12))) <= 1e-12
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("name", ["memory-amplitude-damping-k3", "sequential-memory-k3"])
def test_blp_witness_of_a_real_and_a_complex_state_is_the_oracle_revival_sum(name, rng):
    step = BUILDERS[name]
    for rho_a, rho_b in [_qubits(rng, "|1>", "|+i>"), _qubits(rng, "real", "complex")]:
        want = _oracle_revival_sum(step, rho_a, rho_b)
        assert abs(blp_witness(step, rho_a, rho_b, STEPS) - want) <= 1e-12


REAL_PROGRAMS = {
    **{f"markovian-{kind}": BUILDERS[f"markovian-{kind}"] for kind in KINDS},
    **{
        f"memory-{kind}-k{k}": build_nonmarkovian_step(kind, MemorySpec(k, (*THETAS, 1.1)[:k]))
        for kind in KINDS
        for k in range(2, 6)
    },
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(REAL_PROGRAMS)),
    starts=st.lists(st.sampled_from(["|+i>", "complex", "real", "|1>", "|+>"]), min_size=1,
                    max_size=3).filter(lambda s: "|+i>" in s or "complex" in s),
    steps=st.integers(0, 40),
    steps_per_chunk=st.sampled_from([1, 2, 3, 5, None]),  # None: the default budget
    seed=st.integers(0, 2**16),
)
@example(name="markovian-dephasing", starts=["|+i>"], steps=9, steps_per_chunk=None, seed=0)
@example(name="memory-dephasing-k4", starts=["|+i>"], steps=2, steps_per_chunk=None, seed=0)
@example(name="memory-dephasing-k3", starts=["|1>", "|+i>"], steps=0, steps_per_chunk=1, seed=0)
@example(name="memory-amplitude-damping-k5", starts=["real", "complex"], steps=12,
         steps_per_chunk=2, seed=1)
def test_complex_starts_of_a_real_program_match_the_dense_oracle(
    name, starts, steps, steps_per_chunk, seed
):
    """The dense phase of a float64 program carries Re rho and Im rho as real states: the
    Markovian arms' W_0 fills the register (its first dense slot is rho0), memory k = 4 from
    |+i> at 2 steps ends among the factor steps, and short runs cross the switch to dense."""
    step, rng = REAL_PROGRAMS[name], np.random.default_rng(seed)
    mixed = {"complex": lambda: random_density(rng), "real": lambda: random_density(rng).real}
    states = [
        DensityMatrix(mixed[n]() if n in mixed else QUBIT_STARTS[n], (Wire("q"),)) for n in starts
    ]
    assert compile_step(step)[1].dtype == np.float64
    with pytest.MonkeyPatch.context() as patch:
        if steps_per_chunk is not None:  # 2 n real states per step
            _chunk_steps(patch, step, 2 * len(states), steps_per_chunk)
        seen, reductions = _kernel_dtypes(patch), _counting(patch, "partial_trace_matrix")
        got = evolve(step, states, steps)
        budget = engine._CHUNK_ENTRIES
    assert got.dtype == np.complex128 and got.shape == (steps + 1, len(states), 2, 2)
    buffers = [stack for stack, *_ in reductions]  # the dense buffer, which S^w products write
    assert set(seen + [b.dtype for b in buffers]) <= {np.dtype(np.float64)}
    assert all(b.shape[1] == 2 * len(states) for b in buffers)
    assert all(b.size <= max(budget, b[0].size) for b in buffers)
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("half", [0, 1])  # the real or the imaginary part of state 1
def test_error_index_of_a_complex_pair_is_step_times_states_plus_state(monkeypatch, rng, half):
    step = BUILDERS["memory-dephasing-k2"]  # real, d_c = 4: step 1 fills it, 1..5 are reduced
    _chunk_steps(monkeypatch, step, 4, 2)
    first = [1]  # the step of the next reduced slot

    def break_state_1_from_step_3(_, reduced):  # rows Re rho_0, Re rho_1, Im rho_0, Im rho_1
        reduced[max(3 - first[0], 0):, 1 + 2 * half] += np.eye(2)
        first[0] += len(reduced)
        return reduced

    _counting(monkeypatch, "partial_trace_matrix", break_state_1_from_step_3)
    with pytest.raises(InvalidStateError) as info:
        evolve(step, [_system_state(step, rng), _system_state(step, rng)], 5)
    assert info.value.invariant == "trace" and info.value.index == 7


def test_negative_step_count_rejected(rng):
    step = BUILDERS["memory-dephasing-k2"]
    rho = _system_state(step, rng)
    with pytest.raises(ValueError, match=r"^step count -1 must be >= 0$"):
        evolve(step, [rho], -1)
    with pytest.raises(ValueError, match=r"^step count -2 must be >= 0$"):
        blp_witness(step, rho, rho, -2)


def test_evolve_of_no_states_is_an_empty_stack():
    assert evolve(BUILDERS["memory-dephasing-k2"], [], 4).shape == (5, 0, 2, 2)


def test_evolve_reads_a_one_shot_iterable_of_states_once(rng):
    step = BUILDERS["memory-dephasing-k2"]
    rho = _system_state(step, rng)
    assert np.array_equal(evolve(step, (r for r in [rho]), 3), evolve(step, [rho], 3))


def test_blp_witness_of_zero_steps_is_zero(rng):
    step = BUILDERS["memory-dephasing-k2"]
    w = blp_witness(step, _system_state(step, rng), _system_state(step, rng), 0)
    assert w == 0.0 and isinstance(w, float)


class TestSystemLayout:
    STEP = StepCircuit("split", (Wire("a"), Wire("b"), Wire("c")), ("a", "c"), [])
    RHO = DensityMatrix(np.eye(4) / 4, (Wire("a"), Wire("c")))

    def test_run_rejects_non_contiguous_system(self):
        with pytest.raises(DimensionMismatchError, match="contiguous"):
            run(self.STEP, self.RHO, 3, [])

    def test_blp_witness_rejects_non_contiguous_system(self):
        with pytest.raises(DimensionMismatchError, match="contiguous"):
            blp_witness(self.STEP, self.RHO, self.RHO, 3)

    def test_system_wire_dims_must_match(self):
        step = StepCircuit("qutrit", (Wire("q", 3), Wire("e")), ("q",), [GateOp.reset("e")])
        rho = DensityMatrix(np.eye(2) / 2, (Wire("q"),))
        with pytest.raises(DimensionMismatchError):
            run(step, rho, 2, [])

    def test_evolve_checks_before_the_first_state(self):
        with pytest.raises(DimensionMismatchError):
            evolve(self.STEP, [self.RHO], 3)

    def test_step_without_system_wires_rejected(self):
        step = StepCircuit("bare", (Wire("a"), Wire("b")), (), [])
        with pytest.raises(DimensionMismatchError, match=r"^step 'bare' has no system wires$"):
            evolve(step, [self.RHO], 2)

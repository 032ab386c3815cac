"""``engine.evolve`` and its two consumers, ``run`` and ``blp_witness``,
against the per-op dense oracle in conftest."""

import math

import numpy as np
import pytest

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
from oqsim.qmath import DensityMatrix, DimensionMismatchError, InvalidStateError, Wire

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


def _widths(step, steps):
    """Columns of each kernel input: the factor's s r^n while below d_c, then d_c."""
    _, kraus, *_ = compile_step(step)
    dc, m = kraus.shape[1], math.prod(w.dim for w in step.layout if w.label in step.system)
    widths = []
    for _ in range(steps):
        widths.append(m)
        m = min(m * len(kraus), dc)
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
    widths = _widths(step, 8)
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 8)
    assert [states.shape[-1] for _, states in kernels] == widths
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
    assert [s.shape[-1] for _, s in kernels] == [w for w in _widths(step, steps) for _ in states]
    if name == "overshoot":
        assert compile_step(step)[3] is not None
        assert shapes == ([(1, 4, 8)] * 2 + [(1, 4, 4)] * 4)[:2 * steps]
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3])
def test_factor_steps_across_chunk_boundaries(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["memory-amplitude-damping-k4"]  # d_c = 16: three factor steps
    states = [_pure_state(step, rng), _system_state(step, rng)]
    whole = evolve(step, states, 7)
    _chunk_steps(monkeypatch, step, 2, steps_per_chunk)
    got = evolve(step, states, 7)
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

    def wrapper(*args):
        calls.append(args)
        result = original(*args)
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
    step = BUILDERS["markovian-dephasing"]  # d_c = 2: 4096 steps fill the 2**14 entries
    reductions = _counting(monkeypatch, "partial_trace_matrix")
    evolve(step, [_system_state(step, rng)], 9000)
    assert [len(stack) for stack, *_ in reductions] == [4096, 4096, 809]
    assert all(stack.size <= 2**14 for stack, *_ in reductions)


@pytest.mark.parametrize("steps_per_chunk", [1, 2, 3, 6])  # 6: all 5 steps and the start
def test_evolve_compiles_once_and_runs_each_state_once_per_step(monkeypatch, rng, steps_per_chunk):
    step = BUILDERS["sequential-memory-k3"]
    _chunk_steps(monkeypatch, step, 3, steps_per_chunk)
    programs = []
    compiles = _counting(monkeypatch, "compile_step", lambda _, p: programs.append(p) or p)
    kernels = _counting(monkeypatch, "run_compiled")
    evolve(step, [_system_state(step, rng) for _ in range(3)], 5)
    assert len(compiles) == 1 and len(kernels) == 3 * 5
    assert all(program is programs[0] for program, _ in kernels)
    # r = 16: one factor step takes each state's (8, 2) lift past d_c = 8
    want = [(1, 8, 2)] * 3 + [(1, 8, 8)] * 12
    assert [states.shape for _, states in kernels] == want


def test_k7_factor_doubles_until_it_fills_the_carried_register(monkeypatch, rng):
    mem = MemorySpec(7, (0.3, 1.1, 2.0, 0.7, 2.9, 0.4, 1.6))
    step = build_nonmarkovian_step("amplitude-damping", mem)
    rho0 = _system_state(step, rng)
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 8)
    want = [(1, 128, 2**n) for n in range(1, 7)] + [(1, 128, 128)] * 2
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
    assert [s.shape[-1] for _, s in kernels] == [2, 2, 4, 4, 8, 8, 8, 8]
    _matches_oracle(step, states, got)


@pytest.mark.parametrize("kind", KINDS)
def test_markovian_arm_from_one_takes_one_factor_step_then_the_superoperator(monkeypatch, kind):
    step = BUILDERS[f"markovian-{kind}"]
    rho0 = _basis_state(step, 0.0, 1.0)
    assert compile_step(step)[3] is not None
    kernels = _counting(monkeypatch, "run_compiled")
    got = evolve(step, [rho0], 5)
    assert [s.shape for _, s in kernels] == [(1, 2, 1)] + [(1, 2, 2)] * 4
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
    step = BUILDERS["memory-dephasing-k2"]
    _chunk_steps(monkeypatch, step, 2, steps_per_chunk)

    def break_state_1_from_step_3(call, result):
        state, n = call % 2, call // 2 + 1
        return 2 * result if state == 1 and n >= 3 else result

    _counting(monkeypatch, "run_compiled", break_state_1_from_step_3)
    with pytest.raises(InvalidStateError) as info:
        evolve(step, [_system_state(step, rng), _system_state(step, rng)], 5)
    assert info.value.invariant == "trace" and info.value.index == 7


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_run_records_the_oracle_states(name, rng):
    step = BUILDERS[name]
    rho0 = _system_state(step, rng)
    obs = projector_observable("p1")
    traj = run(step, rho0, 10, [obs])
    for rec, want in zip(traj.records, dense_trajectory(step, rho0, 10)):
        assert abs(rec.values["p1"] - np.trace(obs.projector @ want).real) <= 1e-12
        assert abs(rec.purity - np.trace(want @ want).real) <= 1e-12


@pytest.mark.parametrize("name", ["memory-amplitude-damping-k3", "sequential-memory-k3"])
def test_blp_witness_is_the_oracle_revival_sum(name, rng):
    step = BUILDERS[name]
    rho_a, rho_b = _system_state(step, rng), _system_state(step, rng)
    a = dense_trajectory(step, rho_a, STEPS)
    b = dense_trajectory(step, rho_b, STEPS)
    dist = [0.5 * np.abs(np.linalg.eigvalsh(x - y)).sum() for x, y in zip(a, b)]
    want = sum(max(cur - prev, 0.0) for prev, cur in zip(dist, dist[1:]))
    assert abs(blp_witness(step, rho_a, rho_b, STEPS) - want) <= 1e-12


def test_negative_step_count_rejected(rng):
    step = BUILDERS["memory-dephasing-k2"]
    rho = _system_state(step, rng)
    with pytest.raises(ValueError, match=r"^step count -1 must be >= 0$"):
        evolve(step, [rho], -1)
    with pytest.raises(ValueError, match=r"^step count -2 must be >= 0$"):
        blp_witness(step, rho, rho, -2)


def test_evolve_of_no_states_is_an_empty_stack():
    assert evolve(BUILDERS["memory-dephasing-k2"], [], 4).shape == (5, 0, 2, 2)


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

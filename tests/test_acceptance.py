"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line once its assertions hold, so running
``pytest -s tests/test_acceptance.py`` gives one line per criterion.
"""

import math
import time

import numpy as np

from oqsim.analysis import monotonicity_check, resource_count
from oqsim.channels import (
    KrausChannel,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    amplitude_damping,
    apply_channel,
    dephasing,
    pauli_channel,
)
from oqsim.circuit import (
    MemorySpec,
    apply_step,
    build_dilation_step,
    build_markovian_step,
    build_nonmarkovian_step,
    build_sequential_step,
)
from oqsim.cli import main
from oqsim.engine import projector_observable, run

from conftest import (
    KET1,
    KETP,
    choi_min_eigenvalue,
    proj,
    qstate,
    random_density,
    system_reduce,
    system_state,
    unit_images,
)

P1 = projector_observable("p1")
PPLUS = projector_observable("p+")


def read_series(path):
    rows = path.read_text().splitlines()[1:]
    return [float(r.split(",")[2]) for r in rows]


def test_criterion_1_markovian_damping_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["--preset", "fig6"]) == 0
    elapsed = time.perf_counter() - start
    series = read_series(tmp_path / "fig6_markovian.csv")
    assert len(series) == 51
    decay = 1.0 - math.sin(math.pi / 20) ** 2
    worst = max(abs(p - decay**n) for n, p in enumerate(series))
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS - markovian damping matches closed form "
        f"(max error {worst:.2e}, {elapsed:.3f}s)"
    )


def test_criterion_2_markovian_dephasing_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--preset", "fig7"]) == 0
    series = read_series(tmp_path / "fig7_markovian.csv")
    assert len(series) == 101
    factor = 1.0 - 2.0 * math.sin(math.pi / 10) ** 2
    worst = max(abs(p - (1 + factor**n) / 2) for n, p in enumerate(series))
    assert worst <= 1e-9
    assert abs(series[-1] - 0.5) <= 0.05
    print(
        f"\nACCEPTANCE 2: PASS - markovian dephasing matches closed form "
        f"(max error {worst:.2e}, final {series[-1]:.4f})"
    )


def test_criterion_3_memory_effects(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--preset", "fig6"]) == 0
    assert main(["--preset", "fig8"]) == 0
    fig6_nm = read_series(tmp_path / "fig6_nonmarkovian.csv")
    revivals = [b - a for a, b in zip(fig6_nm, fig6_nm[1:])]
    assert max(revivals) > 0.01
    fig8_m = read_series(tmp_path / "fig8_markovian.csv")
    fig8_nm = read_series(tmp_path / "fig8_nonmarkovian.csv")
    assert fig8_nm[50] > fig8_m[50]
    print(
        f"\nACCEPTANCE 3: PASS - memory revival {max(revivals):.3f} > 0.01; "
        f"sustained population {fig8_nm[50]:.3f} > {fig8_m[50]:.3f} at step 50"
    )


def test_criterion_4_channel_circuit_equivalence():
    rng = np.random.default_rng(41)
    cases = [
        ("amplitude-damping", math.pi / 10, amplitude_damping),
        ("dephasing", math.pi / 5, dephasing),
    ]
    worst = 0.0
    for kind, theta, make in cases:
        step = build_markovian_step(kind, theta)
        ch = make(math.sin(theta / 2))
        for _ in range(50):
            rho = random_density(rng)
            red = system_reduce(apply_step(step, system_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            worst = max(worst, float(np.max(np.abs(red.matrix - want.matrix))))
    assert worst <= 1e-10
    print(
        f"\nACCEPTANCE 4: PASS - one-step circuit equals the Kraus map "
        f"(max deviation {worst:.2e} over 100 states)"
    )


def test_criterion_5_zero_memory_reduction():
    theta = math.pi / 10
    nm = build_nonmarkovian_step("amplitude-damping", MemorySpec(3, (theta, 0.0, 0.0)))
    mk = build_markovian_step("amplitude-damping", theta)
    traj_nm = run(nm, qstate(proj(KET1)), 50, [P1])
    traj_mk = run(mk, qstate(proj(KET1)), 50, [P1])
    worst = max(
        abs(a - b) for a, b in zip(traj_nm.series("p1"), traj_mk.series("p1"))
    )
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 5: PASS - zero-angle memory step reduces exactly "
          f"(max gap {worst:.2e} over 50 steps)")


def test_criterion_6_sequential_step_is_exact():
    rng = np.random.default_rng(61)
    states = [random_density(rng) for _ in range(20)]
    grid = (0.04, 0.02, 0.01, 0.005)
    errs = []
    for eps in grid:
        ch = pauli_channel(eps, eps, eps)
        step = build_sequential_step(ch)
        ds = []
        for rho in states:
            red = system_reduce(apply_step(step, system_state(rho, step)), step)
            want = apply_channel(ch, qstate(rho))
            ds.append(0.5 * np.abs(np.linalg.eigvalsh(red.matrix - want.matrix)).sum())
        errs.append(max(ds))
    assert max(errs) <= 1e-12
    print(
        f"\nACCEPTANCE 6: PASS - sequential step exact "
        f"(worst errors {['%.2e' % e for e in errs]})"
    )


def test_criterion_7_resource_claim():
    start = time.perf_counter()
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    seq_qubits, dil_env, seq_gates = [], [], []
    ranks = (2, 4, 8, 16)
    for l in ranks:
        ops = [math.sqrt(1.0 / l) * paulis[i % 3] for i in range(l)]
        ch = KrausChannel(2, ops, label=f"synthetic-l{l}")
        seq = resource_count(build_sequential_step(ch), 1)
        dil = resource_count(build_dilation_step(ch), 1)
        seq_qubits.append(seq.qubit_count)
        dil_env.append(dil.qubit_count - 1)
        seq_gates.append(seq.gates_per_step)
    elapsed = time.perf_counter() - start
    assert seq_qubits == [3, 3, 3, 3]
    assert dil_env == [math.ceil(math.log2(l)) for l in ranks]
    # linear growth: per-operator gate cost stays in a fixed band
    ratios = [g / l for g, l in zip(seq_gates, ranks)]
    assert max(ratios) - min(ratios) <= 2.0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 7: PASS - sequential width fixed at 3 qubits while dilation "
        f"environment grows {dil_env}; gates/step {seq_gates} ({elapsed:.3f}s)"
    )


def test_criterion_8_invariant_suite(tmp_path, monkeypatch):
    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    for preset in ("fig6", "fig7", "fig8"):
        assert main(["--preset", preset]) == 0
    rng = np.random.default_rng(81)
    checked = 0
    for i in range(200):
        kind = "amplitude-damping" if rng.integers(2) else "dephasing"
        markovian = bool(rng.integers(2))
        steps = int(rng.integers(10, 101))
        if markovian:
            theta = float(rng.uniform(0.0, math.pi))
            step = build_markovian_step(kind, theta)
        else:
            k = int(rng.choice([2, 3, 4]))
            thetas = tuple(float(t) for t in rng.uniform(0.0, math.pi, size=k))
            step = build_nonmarkovian_step(kind, MemorySpec(k, thetas))
        rho0 = qstate(proj(KET1) if kind == "amplitude-damping" else proj(KETP))
        obs = "p1" if kind == "amplitude-damping" else "p+"
        # run() validates trace/hermiticity/eigenvalue floor on every record
        traj = run(step, rho0, steps, [projector_observable(obs)])
        for rec in traj.records:
            assert abs(rec.trace - 1.0) <= 1e-9
        if markovian:
            if kind == "amplitude-damping" or theta <= math.pi / 2:
                assert monotonicity_check(traj, obs).monotone
            else:
                # dephasing beyond theta = pi/2 multiplies the coherence by a
                # negative factor each step: the population oscillates around
                # the 0.5 fixed point while its distance to it still contracts
                # monotonically, which is the memoryless statement being tested
                gaps = [abs(p - 0.5) for p in traj.series(obs)]
                assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 8: PASS - presets plus 200 randomized runs kept all state "
        f"invariants ({elapsed:.1f}s)"
    )


def test_criterion_9_cp_witness():
    rng = np.random.default_rng(91)
    builtins = [
        amplitude_damping(g) for g in (0.0, 0.25, math.sin(math.pi / 20), 1.0)
    ] + [
        dephasing(g) for g in (0.3, math.sin(math.pi / 10), 1.0)
    ] + [
        pauli_channel(0.1, 0.05, 0.2),
        pauli_channel(0.25, 0.25, 0.25),
    ]
    worst = min(choi_min_eigenvalue(unit_images(ch.operators, 2)) for ch in builtins)
    assert worst >= -1e-9
    # the transpose map sends |i><j| to |j><i|
    transposed = np.eye(4, dtype=complex).reshape(4, 2, 2).transpose(0, 2, 1)
    transpose_witness = choi_min_eigenvalue(transposed)
    assert transpose_witness < 0
    print(
        f"\nACCEPTANCE 9: PASS - builtin channels CP (min witness {worst:.2e}); "
        f"transpose map flagged at {transpose_witness:.3f}"
    )

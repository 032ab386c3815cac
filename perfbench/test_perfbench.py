"""Self-tests of the benchmark: smoke runs, failure counting and tracing."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import oqsim
import oqsim.cli  # noqa: F401  (the presets workload calls oq.cli.main)

import probe
import run
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def test_declared_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers == {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert not [p for p in os.listdir(ROOT) if p.startswith(".perfbench-")]


def _ready(cls, seed=5):
    wl = cls(seed, smoke=True)
    wl.setup(oqsim)
    return wl


@pytest.mark.parametrize("delta", [1e-9, 1e-11])
def test_perturbed_trajectory_is_counted_as_a_failure(delta):
    wl = _ready(workloads.SequentialL64)
    clean = run.Tally()
    run.run_units(wl, oqsim, 0, clean, count=2)

    original = wl.unit

    def perturbed(oq, i):
        traj = original(oq, i)
        last = traj.records[-1]
        bumped = dataclasses.replace(
            last, values={k: v + delta for k, v in last.values.items()}
        )
        return dataclasses.replace(traj, records=traj.records[:-1] + (bumped,))

    wl.unit = perturbed
    tally = run.Tally()
    run.run_units(wl, oqsim, 0, tally, count=2)
    wl.reference(oqsim)
    assert run.count_failures(wl, [clean]) == 0
    assert run.count_failures(wl, [tally]) == 2


def test_changed_csv_bytes_between_rounds_count_as_a_failure():
    wl = _ready(workloads.Presets)
    original = wl.unit
    try:

        def edited_after_first(oq, i):
            codes = original(oq, i)
            if i > 0:
                path = os.path.join(wl.tmp, "fig6_markovian.csv")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("\n")
            return codes

        wl.unit = edited_after_first
        tally = run.Tally()
        run.run_units(wl, oqsim, 0, tally, count=3)
        wl.reference(oqsim)
        assert run.count_failures(wl, [tally]) == 2
    finally:
        wl.close()
    assert not os.path.exists(wl.tmp)


def test_missing_hook_target_is_reported_absent_and_hooks_are_restored(monkeypatch):
    hooks = tuple(
        ("qmath.reset", "oqsim.circuit", "removed_reset") if h[0] == "qmath.reset" else h
        for h in tracing.HOOKS
    )
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    originals = {
        (module, path): getattr(sys.modules[module], path)
        for _, module, path in hooks
        if "." not in path and hasattr(sys.modules[module], path)
    }
    init = oqsim.qmath.DensityMatrix.__init__
    wl = _ready(workloads.BlpGrid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oqsim.analysis.blp_witness is not originals[("oqsim.analysis", "blp_witness")]
        tally = run.Tally()
        run.run_units(wl, oqsim, 0, tally, count=2)
    finally:
        tracer.restore()
    wl.reference(oqsim)
    assert run.count_failures(wl, [tally]) == 0
    metrics, absent = tracer.metrics(2, {"circuit.build": 0.0, "circuit.compile": 0.0}, 1.0)
    assert absent == ["qmath.reset_s", "qmath.reset_calls"]
    assert metrics["qmath.reset_s"] == (0.0, "s/unit")
    assert metrics["analysis.blp_s"][0] > 0
    assert metrics["circuit.ops_reset"][0] == 2 * wl.steps
    for (module, path), fn in originals.items():
        assert getattr(sys.modules[module], path) is fn
    assert oqsim.qmath.DensityMatrix.__init__ is init


def test_probe_scaling_cancels_a_uniform_slowdown():
    times, probes = [100.0, 300.0], [2.0, 2.0, 4.0]
    ref_ns = probe.KINDS["interpreter"][1] * 1e6
    fast = probe.scale(times, probes, "interpreter")
    assert fast == pytest.approx([100.0 * ref_ns / 2.0, 300.0 * ref_ns / 3.0])
    slow = probe.scale([2 * t for t in times], [2 * p for p in probes], "interpreter")
    assert slow == pytest.approx(fast)
    assert all(probe.timed(kind) > 0 for kind in probe.KINDS)

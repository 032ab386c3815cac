"""The summary of tools/bench_pairs.py on fixed runs: medians, linear quartiles, ratios and
pairs won out of every pair run, with a tie or a crashed run won by neither side.  No
benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"steps_per_s": "higher", "unit_p50_ms": "lower", "peak_rss_mib": "lower"}


def _run(pair, side, steps, p50, rss, failed=0, attempted=100):
    metrics = {"steps_per_s": steps, "unit_p50_ms": p50, "peak_rss_mib": rss}
    return {
        "workload": "w", "seed": 10 + pair, "pair": pair, "side": side,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v} for k, v in metrics.items()}},
    }


def test_summary_counts_strict_wins_and_takes_linear_quartiles():
    parent = [(100.0, 2.0, 40.0), (110.0, 2.0, 41.0), (120.0, 3.0, 42.0), (130.0, 3.0, 43.0)]
    change = [(150.0, 1.0, 40.0), (110.0, 2.5, 41.5), (90.0, 3.0, 41.0), (200.0, 2.0, 44.0)]
    runs = [_run(i, "parent", *v) for i, v in enumerate(parent)]
    runs += [_run(i, "change", *v, failed=i % 2) for i, v in enumerate(change)]
    summary = bench_pairs.summarize(runs, DIRECTIONS)

    steps = summary["steps_per_s"]
    # pair 1 ties at 110: a win for neither side
    assert (steps["pairs_won"], steps["pairs"], steps["pairs_compared"]) == (2, 4, 4)
    # linear quartiles of 100, 110, 120, 130: 107.5, 115, 122.5
    assert (steps["parent_q1"], steps["parent_median"], steps["parent_q3"]) == (107.5, 115, 122.5)
    # 90, 110, 150, 200: 105, 130, 162.5
    assert (steps["change_q1"], steps["change_median"], steps["change_q3"]) == (105, 130, 162.5)
    assert steps["ratio"] == pytest.approx(130 / 115) and steps["better"] == "higher"

    p50 = summary["unit_p50_ms"]
    # lower is better: 1 < 2 wins, 2.5 > 2 loses, 3 = 3 ties, 2 < 3 wins
    assert p50["pairs_won"] == 2 and p50["better"] == "lower"
    assert (p50["parent_q1"], p50["parent_median"], p50["parent_q3"]) == (2.0, 2.5, 3.0)

    assert summary["peak_rss_mib"]["pairs_won"] == 1  # only 41 < 42
    assert summary["failed"] == {
        "parent": 0, "change": 2, "attempted_parent": 400, "attempted_change": 400,
        "crashed_parent": 0, "crashed_change": 0,
    }
    assert [row["parent"] for row in summary["per_pair_peak_rss_mib"]] == [40, 41, 42, 43]
    assert [row["seed"] for row in summary["per_pair_peak_rss_mib"]] == [10, 11, 12, 13]


def test_a_crashed_run_is_a_pair_run_and_not_won():
    runs = [_run(0, "parent", 100.0, 2.0, 40.0), _run(0, "change", 120.0, 1.0, 40.0),
            _run(1, "parent", 100.0, 2.0, 40.0), {**_run(1, "change", 0, 0, 0), "result": None}]
    summary = bench_pairs.summarize(runs, DIRECTIONS)
    steps = summary["steps_per_s"]
    assert (steps["pairs_won"], steps["pairs_compared"], steps["pairs"]) == (1, 1, 2)
    assert (summary["pairs"], summary["pairs_compared"]) == (2, 1)
    assert summary["failed"] == {
        "parent": 0, "change": 0, "attempted_parent": 200, "attempted_change": 100,
        "crashed_parent": 0, "crashed_change": 1,
    }
    alone = bench_pairs.summarize(runs[2:], DIRECTIONS)
    assert (alone["pairs"], alone["pairs_compared"], alone["failed"]["crashed_change"]) == (1, 0, 1)
    assert "steps_per_s" not in alone


def test_directions_and_run_length_come_from_the_benchmark_declaration():
    declared = bench_pairs.read_benchmark(SCRIPT.parents[1] / "BENCHMARK.json")
    directions, seconds, workloads = declared
    assert directions["steps_per_s"] == "higher" and directions["peak_rss_mib"] == "lower"
    assert seconds == 30 and "presets" in workloads and "sequential_l64" in workloads


def _never(*args):
    raise AssertionError("the input was not refused before anything was unpacked or run")


@pytest.fixture
def main(monkeypatch):
    """bench_pairs.main with unpacking and benchmark runs replaced by a failure."""
    monkeypatch.setattr(bench_pairs, "unpack", _never)
    monkeypatch.setattr(bench_pairs, "run_one", _never)
    return bench_pairs.main


@pytest.mark.parametrize("pairs,err", [
    ("presets", "--pairs 'presets' is not WORKLOAD=N"),
    ("presets=", "--pairs 'presets=' is not WORKLOAD=N"),
    ("presets=x", "--pairs 'presets=x' is not WORKLOAD=N"),
    ("presets=-1", "--pairs 'presets=-1' is not WORKLOAD=N"),
    ("presets=0", "--pairs 'presets=0' asks for 0 pairs; N must be >= 1"),
    ("nosuch=3", "unknown workload 'nosuch'; expected one of ['presets', 'memory_k7', "
                 "'sequential_l64', 'blp_grid']"),
    ("blp_grid=1", "--pairs names blp_grid twice"),
])
def test_a_bad_pairs_item_exits_2_with_one_line(main, monkeypatch, tmp_path, capsys, pairs, err):
    monkeypatch.setattr(bench_pairs, "resolve", _never)  # items are checked first
    argv = ["HEAD", "HEAD", "--pairs", "blp_grid=2", "--pairs", pairs, "--seed", "1",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"bench_pairs: {err}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out,err", [
    ("missing/out.json", "--out '{tmp}/missing/out.json': cannot write in '{tmp}/missing'"),
    ("", "--out '{tmp}/' is a directory"),
], ids=["missing-directory", "a-directory"])
def test_an_out_that_cannot_be_written_exits_2_with_one_line(main, monkeypatch, tmp_path, capsys,
                                                               out, err):
    monkeypatch.setattr(bench_pairs, "resolve", _never)  # --out is checked before revisions
    argv = ["HEAD", "HEAD", "--pairs", "presets=1", "--seed", "1", "--out", f"{tmp_path}/{out}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"bench_pairs: {err.format(tmp=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_revision_exits_2_with_one_line(main, tmp_path, capsys):
    argv = ["nosuchrev", "HEAD", "--pairs", "presets=1", "--seed", "1",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "bench_pairs: unknown revision 'nosuchrev'\n"
    assert list(tmp_path.iterdir()) == []

"""Alternating before/after pairs of the benchmark, summarized as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs sequential_l64=10 --pairs presets=5 \\
        --seed 3300 --what "one line on the change" --out BENCH_n.json

PARENT and CHANGE are git revisions of this repository.  Each is unpacked with
``git archive`` into its own directory (no ``.git``, so ``env.git_commit`` reads
null), and every run is ``python3 perfbench/run.py --workload W --seed S --seconds T``
from that directory with ``PYTHONDONTWRITEBYTECODE=1``, T being BENCHMARK.json's
``run_seconds``.  Pair i runs the parent first when i is even and the change first
when it is odd; the seeds count up from ``--seed`` over the workloads in the order
given, one seed per pair.  Runs go one at a time.  An unknown revision, a ``--pairs``
item that is not ``WORKLOAD=N`` with N >= 1, a workload that BENCHMARK.json does not
declare, one named by two items, or an ``--out`` that is a directory or lies in a directory
that is missing or not writable ends the script before anything is unpacked, with one
stderr line and exit 2.

Per workload and end-to-end metric (names and directions from BENCHMARK.json) the
summary holds both sides' medians and quartiles (``numpy.percentile``, linear), the
change's ratio to the parent's median, and the pairs the change won out of every pair
run: a pair counts only when both runs gave a result and the change is strictly better,
so a tie, or a pair with a crashed run, counts for neither side.  Each side's crashed
runs are counted beside its failed operations.  Every run, with its environment line,
is kept under ``runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class InputError(Exception):
    """A revision, ``--pairs`` item or ``--out`` the script refuses before it unpacks or runs
    anything."""


def read_benchmark(benchmark_path: str) -> tuple[dict, float, list]:
    """From the benchmark declaration: end-to-end metric name -> "higher" or "lower", the
    seconds of one run and the workload names."""
    with open(benchmark_path, encoding="utf-8") as f:
        declared = json.load(f)
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    return directions, declared["run_seconds"], [w["name"] for w in declared["workloads"]]


def plan_pairs(items: list, seed: int, workloads: list) -> list:
    """``(workload, seeds)`` for each ``WORKLOAD=N`` item, the seeds counting up from ``seed``."""
    plan = []
    for item in items:
        workload, _, count = item.partition("=")
        if not count.isdecimal():
            raise InputError(f"--pairs {item!r} is not WORKLOAD=N")
        if int(count) < 1:
            raise InputError(f"--pairs {item!r} asks for {int(count)} pairs; N must be >= 1")
        if workload not in workloads:
            raise InputError(f"unknown workload {workload!r}; expected one of {workloads}")
        if workload in dict(plan):  # its pairs would share numbers, and summarize keys by pair
            raise InputError(f"--pairs names {workload} twice")
        plan.append((workload, list(range(seed, seed + int(count)))))
        seed += int(count)
    return plan


def check_out(path: str) -> None:
    """Refuse an ``--out`` that is a directory or whose directory is missing or not writable."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise InputError(f"--out {path!r} is a directory")
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise InputError(f"--out {path!r}: cannot write in {folder!r}")


def resolve(revision: str) -> str:
    """The commit id of ``revision`` in this repository."""
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                           f"{revision}^{{commit}}"], capture_output=True, text=True)
    if done.returncode:
        raise InputError(f"unknown revision {revision!r}")
    return done.stdout.strip()


def better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def metric_summary(parent: list, change: list, direction: str) -> dict:
    """Medians, linear quartiles, ratio of medians and pairs won of paired values."""
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    p_q1, p_med, p_q3 = np.percentile(p, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(c, [25, 50, 75])
    return {
        "better": direction,
        "parent_median": float(p_med),
        "parent_q1": float(p_q1),
        "parent_q3": float(p_q3),
        "change_median": float(c_med),
        "change_q1": float(c_q1),
        "change_q3": float(c_q3),
        "ratio": float(c_med / p_med),
        "pairs_won": sum(better(b, a, direction) for a, b in zip(parent, change)),
    }


def summarize(runs: list, directions: dict) -> dict:
    """Summary of one workload's runs.  The metrics compare the pairs in which both runs gave a
    result, but ``pairs`` counts every pair run, so a pair with a crashed run is one the change
    did not win; ``failed`` counts each side's crashed runs and its failed operations."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    sides = [[(pair.get(side) or {}).get("result") for side in SIDES]
             for _, pair in sorted(by_pair.items())]
    both = [(pair, p, c) for pair, (p, c) in zip(sorted(by_pair), sides) if p and c]
    counts = {"pairs": len(by_pair), "pairs_compared": len(both)}
    summary = dict(counts)
    for name, direction in directions.items():
        if both:
            summary[name] = {
                **metric_summary([p["metrics"][name]["value"] for _, p, _ in both],
                                 [c["metrics"][name]["value"] for _, _, c in both], direction),
                **counts,
            }
    summary["failed"] = {}
    for i, side in enumerate(SIDES):
        results = [r[i] for r in sides if r[i]]
        summary["failed"][side] = sum(r["failed"] for r in results)
        summary["failed"][f"attempted_{side}"] = sum(r["attempted"] for r in results)
        summary["failed"][f"crashed_{side}"] = len(sides) - len(results)
    summary["per_pair_peak_rss_mib"] = [
        {
            "pair": pair,
            "seed": by_pair[pair]["parent"]["seed"],
            "parent": p["metrics"]["peak_rss_mib"]["value"],
            "change": c["metrics"]["peak_rss_mib"]["value"],
            "attempted_parent": p["attempted"],
            "attempted_change": c["attempted"],
        }
        for pair, p, c in both
    ]
    return summary


def unpack(revision: str, into: str) -> None:
    """The tree of ``revision`` written under ``into`` by ``git archive``."""
    os.makedirs(into)
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", revision], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {revision} failed")


def run_one(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process: its exit code, wall time, env line and last-line result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    wall = round(time.perf_counter() - start, 1)
    lines = done.stdout.splitlines()
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        print(done.stderr[-2000:], file=sys.stderr)
    return {"exit": done.returncode, "wall_s": wall, "env": env, "result": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="pairs to run on a workload; repeat for more workloads")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--what", default="", help="one line saying what the change does")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    directions, seconds, workloads = read_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    try:
        plan = plan_pairs(args.pairs, args.seed, workloads)
        check_out(args.out)
        revisions = {side: resolve(rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    except InputError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: os.path.join(work, side) for side in SIDES}
        for side in SIDES:
            unpack(revisions[side], trees[side])
        for workload, seeds in plan:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_one(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "first": order[0], **run})
                    value = (run["result"] or {}).get("metrics", {}).get("steps_per_s", {})
                    print(f"{workload} pair {pair} seed {seed} {side}: exit {run['exit']} "
                          f"steps_per_s {value.get('value')}", file=sys.stderr)
    report = {
        "what": args.what,
        "parent": revisions["parent"],
        "change": revisions["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}",
        "method": (
            "alternating pairs, parent and change each in its own copy of the tree made with "
            "git archive (no .git, so env.git_commit is null), PYTHONDONTWRITEBYTECODE=1; pair i "
            "runs the parent first when i is even, the change first when i is odd; one run at a "
            "time; quartiles by numpy.percentile (linear); a tie wins for neither side"
        ),
        "seeds": dict(plan),
        "summary": {
            workload: summarize([r for r in runs if r["workload"] == workload], directions)
            for workload, _ in plan
        },
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
